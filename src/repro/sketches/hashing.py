"""Deterministic 64-bit hashing.

All sketches need a hash function that (a) behaves like a uniform random
function, (b) is deterministic given a seed so experiments are reproducible,
and (c) supports *salting* so independent protocol invocations see independent
hash functions — the paper's ``REP_COUNTP`` averages ``r`` independent runs of
``APX_COUNT``, which is only meaningful if the runs use fresh randomness.

The implementation is a splitmix64-style finaliser, which passes the usual
avalanche tests and needs no external dependencies.  :func:`hash64` is the
specification; :func:`hash64_array` is its numpy twin over ``uint64`` words,
the same bits element-wise, which the array paths use to hash a whole
column (APX_COUNT's per-item draws, the distinct-mode values) in one call.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def hash64(value: int, salt: int = 0) -> int:
    """Hash an integer to a 64-bit value, parameterised by ``salt``.

    >>> hash64(42) == hash64(42)
    True
    >>> hash64(42, salt=1) != hash64(42, salt=2)
    True
    """
    x = (int(value) ^ (int(salt) * _GOLDEN)) & _MASK64
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z & _MASK64


def hash64_array(values, salt=0):
    """:func:`hash64` of every word of ``values``, as a ``uint64`` array.

    ``salt`` is one int or an array broadcasting against ``values`` (one salt
    per value).  Values and salts are taken mod 2**64 as ``uint64`` words;
    every product and sum wraps mod 2**64 like the masked Python ints of
    :func:`hash64`, and being array arithmetic it wraps without an overflow
    warning.
    """
    x = np.array(values, dtype=np.uint64)
    if isinstance(salt, (int, np.integer)):
        x ^= np.uint64((int(salt) * _GOLDEN) & _MASK64)
    else:
        x ^= np.asarray(salt, dtype=np.uint64) * np.uint64(_GOLDEN)
    x += np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def hash_to_unit(value: int, salt: int = 0) -> float:
    """Hash an integer to a float uniform in ``[0, 1)``."""
    return hash64(value, salt) / float(1 << 64)


def leading_rank(hash_value: int, width: int = 64) -> int:
    """Return the 1-based position of the first set bit (from the MSB side).

    This is the geometric random variable used by LogLog-style sketches: for a
    uniform ``hash_value``, ``P(rank = k) = 2^-k``.  If the value is zero the
    rank is ``width + 1`` (all bits were zero).
    """
    if hash_value == 0:
        return width + 1
    # Position of first set bit from the most-significant side.
    return width - hash_value.bit_length() + 1
