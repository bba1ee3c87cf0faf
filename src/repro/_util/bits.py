"""Bit-accounting helpers.

The paper measures communication complexity in *bits transmitted and received
per node* (Section 2.1).  Every protocol in this package therefore expresses
message sizes in bits, using the helpers below so the accounting is uniform.

Two encodings are provided:

``fixed_width_bits``
    The number of bits needed for any value of a known domain ``[0, max_value]``
    — what a real packet format with a fixed field width would use.

``varint_bits``
    A self-delimiting encoding (Elias-gamma style) whose length adapts to the
    value actually sent.  The approximate protocols of Section 4 rely on the
    fact that sending ``floor(log x)`` instead of ``x`` shrinks messages to
    ``O(log log X)`` bits, which only shows up if the encoding is adaptive.

The ``*_array`` twins size whole int64 columns at once for the array sweeps
(exact below 2**53, refused above).
"""

from __future__ import annotations

import numpy as np

from repro._util.validation import require_integer, require_non_negative
from repro.exceptions import ConfigurationError


def bit_width(value: int) -> int:
    """Return the number of bits in the binary representation of ``value``.

    Zero is defined to occupy one bit, so every value costs at least one bit
    to transmit.

    >>> bit_width(0), bit_width(1), bit_width(255), bit_width(256)
    (1, 1, 8, 9)
    """
    return require_non_negative(value, "value").bit_length() or 1


def fixed_width_bits(max_value: int) -> int:
    """Return the field width (bits) needed to hold any value in ``[0, max_value]``.

    >>> fixed_width_bits(0), fixed_width_bits(1), fixed_width_bits(1023)
    (1, 1, 10)
    """
    return require_non_negative(max_value, "max_value").bit_length() or 1


def varint_bits(value: int) -> int:
    """Return the length of a self-delimiting (Elias-gamma style) encoding.

    A value ``v`` with binary length ``L`` costs ``2L - 1`` bits: ``L - 1``
    zero bits announcing the length followed by the ``L`` bits of the value.
    This keeps messages carrying small values (such as the ``floor(log x)``
    items of Section 4.2) proportionally small.

    >>> varint_bits(0), varint_bits(1), varint_bits(7), varint_bits(1000)
    (1, 1, 5, 19)
    """
    width = bit_width(value)
    return 2 * width - 1


def signed_varint_bits(value: int) -> int:
    """Return the length of a self-delimiting encoding of a *signed* value.

    Deltas between successive summaries can be negative, so they are zigzag
    mapped (``v ≥ 0 → 2v``, ``v < 0 → −2v − 1``) onto the non-negative
    integers and then charged at :func:`varint_bits`.  Small drifts in either
    direction therefore cost few bits — the property the streaming engine's
    delta encoding relies on.

    >>> signed_varint_bits(0), signed_varint_bits(1), signed_varint_bits(-1)
    (1, 3, 1)
    """
    value = require_integer(value, "value")
    zigzag = 2 * value if value >= 0 else -2 * value - 1
    # The zigzag image of an integer is a non-negative integer: no re-check.
    return 2 * (zigzag.bit_length() or 1) - 1


# --------------------------------------------------------------------------- #
# Array twins (int64 arrays) for the whole-array sweeps
# --------------------------------------------------------------------------- #
#: Largest magnitude whose bit length ``np.frexp`` recovers exactly.
_EXACT_LIMIT = 1 << 53


def _check_exact(values) -> None:
    if values.size and int(np.abs(values).max()) >= _EXACT_LIMIT:
        raise ConfigurationError(
            "vectorized varint sizing requires magnitudes below 2**53; "
            f"got {int(np.abs(values).max())}"
        )


def bit_width_array(values):
    """Vectorized ``max(1, v.bit_length())`` for non-negative int64 arrays."""
    _check_exact(values)
    exponents = np.frexp(values.astype(np.float64))[1]
    return np.maximum(1, exponents).astype(np.int64)


def varint_bits_array(values):
    """Vectorized :func:`varint_bits` (non-negative values)."""
    return 2 * bit_width_array(values) - 1


def signed_varint_bits_array(values):
    """Vectorized :func:`signed_varint_bits` (zigzag)."""
    zigzag = np.where(values >= 0, 2 * values, -2 * values - 1)
    return 2 * bit_width_array(zigzag) - 1
