"""Internal utilities shared across the ``repro`` package."""

from repro._util.bits import (
    bit_width,
    fixed_width_bits,
    varint_bits,
)
from repro._util.randomness import make_rng
from repro._util.validation import (
    require_integer,
    require_non_negative,
    require_positive,
    require_probability,
)

__all__ = [
    "bit_width",
    "fixed_width_bits",
    "varint_bits",
    "make_rng",
    "require_integer",
    "require_non_negative",
    "require_positive",
    "require_probability",
]
