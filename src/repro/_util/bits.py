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
"""

from __future__ import annotations

from repro._util.validation import require_integer, require_non_negative


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


def encoded_int_bits(value: int, max_value: int | None = None) -> int:
    """Return the cost in bits of sending ``value``.

    When the receiver knows an upper bound ``max_value`` a fixed-width field is
    used; otherwise the self-delimiting encoding is charged.
    """
    if max_value is None:
        return varint_bits(value)
    require_integer(max_value, "max_value")
    if value > max_value:
        raise ValueError(
            f"value {value} exceeds declared maximum {max_value}"
        )
    return fixed_width_bits(max_value)
