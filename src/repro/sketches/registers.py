"""LogLog registers from a batch of 64-bit hashes, as one array pass.

A LogLog or HyperLogLog sketch is a function of the *set* of hashes added
to it: each hash raises one register to at least its rank, and a merge is
the register-wise max.  So the root's sketch after a convergecast is the
sketch of every node's hashes together, whatever the tree.
:func:`registers_from_hashes` computes it directly — what
``_add_hash`` does to one hash, over a ``uint64`` array, with the per-register
max taken by one ``np.maximum.at`` scatter.
"""

from __future__ import annotations

import numpy as np

from repro._util.bits import bit_length_array


def registers_from_hashes(hashes, num_registers: int):
    """The registers of a sketch with ``num_registers`` registers after adding
    every hash in ``hashes`` (in any order) to an empty one.

    The low ``log2 m`` bits of a hash pick the register; the rank is the
    1-based position of the first set bit of the remaining ``64 - log2 m``
    bits, and ``64 - log2 m + 1`` when they are all zero — exactly
    :func:`~repro.sketches.hashing.leading_rank`.  Returns an int64 array of
    length ``num_registers``.
    """
    hashes = np.asarray(hashes, dtype=np.uint64)
    index_bits = num_registers.bit_length() - 1
    index = (hashes & np.uint64(num_registers - 1)).astype(np.intp)
    ranks = 64 - index_bits + 1 - bit_length_array(hashes >> np.uint64(index_bits))
    registers = np.zeros(num_registers, dtype=np.int64)
    np.maximum.at(registers, index, ranks)
    return registers
