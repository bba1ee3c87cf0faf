"""Tests for the bit-accounting helpers."""

import pytest

from repro._util.bits import bit_width, fixed_width_bits, varint_bits
from repro.exceptions import ConfigurationError


class TestBitWidth:
    def test_zero_costs_one_bit(self):
        assert bit_width(0) == 1

    def test_one_costs_one_bit(self):
        assert bit_width(1) == 1

    @pytest.mark.parametrize(
        "value, expected",
        [(2, 2), (3, 2), (4, 3), (255, 8), (256, 9), (1023, 10), (1024, 11)],
    )
    def test_powers_and_boundaries(self, value, expected):
        assert bit_width(value) == expected

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            bit_width(-1)

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigurationError):
            bit_width(3.5)

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            bit_width(True)


class TestFixedWidth:
    def test_domain_zero(self):
        assert fixed_width_bits(0) == 1

    def test_domain_boundaries(self):
        assert fixed_width_bits(1) == 1
        assert fixed_width_bits(2) == 2
        assert fixed_width_bits(65535) == 16

    def test_monotone_in_domain(self):
        widths = [fixed_width_bits(value) for value in range(1, 200)]
        assert widths == sorted(widths)


class TestVarint:
    def test_small_values(self):
        assert varint_bits(0) == 1
        assert varint_bits(1) == 1

    def test_self_delimiting_overhead(self):
        # A value of binary length L costs 2L - 1 bits.
        assert varint_bits(7) == 5       # L = 3
        assert varint_bits(8) == 7       # L = 4
        assert varint_bits(1 << 19) == 39

    def test_adaptive_smaller_for_small_values(self):
        # The whole point: log-domain values are much cheaper than raw values.
        raw_value = 1 << 20
        log_value = 20
        assert varint_bits(log_value) < varint_bits(raw_value) / 3
