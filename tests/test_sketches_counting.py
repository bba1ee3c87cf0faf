"""Tests for the cardinality sketches (LogLog, HyperLogLog)."""

import random

import pytest

from repro.sketches.hyperloglog import HyperLogLogSketch
from repro.sketches.loglog import LogLogSketch, loglog_relative_sigma


@pytest.mark.parametrize("sketch_cls", [LogLogSketch, HyperLogLogSketch])
class TestLogLogFamily:
    def test_empty_estimate_zero(self, sketch_cls):
        assert sketch_cls(num_registers=16).estimate() == 0.0

    def test_requires_power_of_two_registers(self, sketch_cls):
        with pytest.raises(ValueError):
            sketch_cls(num_registers=10)

    def test_distinct_counting_accuracy(self, sketch_cls):
        sketch = sketch_cls(num_registers=256, salt=1)
        true_count = 5000
        for value in range(true_count):
            sketch.add_item(value)
        estimate = sketch.estimate()
        assert abs(estimate - true_count) / true_count < 0.25

    def test_duplicates_collapse_in_item_mode(self, sketch_cls):
        sketch = sketch_cls(num_registers=64, salt=2)
        for _ in range(50):
            for value in range(100):
                sketch.add_item(value)
        assert sketch.estimate() < 400  # ~100 despite 5000 insertions

    def test_random_mode_counts_multiplicities(self, sketch_cls):
        sketch = sketch_cls(num_registers=256, salt=3)
        rng = random.Random(7)
        for _ in range(3000):
            sketch.add_random(rng)
        assert abs(sketch.estimate() - 3000) / 3000 < 0.3

    def test_merge_equals_union(self, sketch_cls):
        left = sketch_cls(num_registers=64, salt=4)
        right = sketch_cls(num_registers=64, salt=4)
        union = sketch_cls(num_registers=64, salt=4)
        for value in range(0, 600):
            left.add_item(value)
            union.add_item(value)
        for value in range(400, 1000):
            right.add_item(value)
            union.add_item(value)
        merged = left.merge(right)
        assert merged.registers == union.registers

    def test_merge_salt_mismatch_rejected(self, sketch_cls):
        with pytest.raises(ValueError):
            sketch_cls(num_registers=16, salt=1).merge(sketch_cls(num_registers=16, salt=2))

    def test_merge_size_mismatch_rejected(self, sketch_cls):
        with pytest.raises(ValueError):
            sketch_cls(num_registers=16).merge(sketch_cls(num_registers=32))

    def test_serialized_bits_are_loglog_sized(self, sketch_cls):
        sketch = sketch_cls(num_registers=64)
        # 64 registers of ~5-6 bits each — far below 64 values of 30 bits.
        assert sketch.serialized_bits(1 << 30) <= 64 * 6

    def test_relative_sigma_decreases_with_registers(self, sketch_cls):
        small = sketch_cls(num_registers=16)
        large = sketch_cls(num_registers=256)
        assert large.relative_sigma < small.relative_sigma


class TestLogLogSpecifics:
    def test_sigma_constant(self):
        assert loglog_relative_sigma(64) == pytest.approx(1.30 / 8.0)

    def test_copy_is_independent(self):
        sketch = LogLogSketch(num_registers=16)
        clone = sketch.copy()
        clone.add_item(1)
        assert sketch.registers != clone.registers or sketch.estimate() == 0.0

    def test_merge_in_place(self):
        a = LogLogSketch(num_registers=16, salt=1)
        b = LogLogSketch(num_registers=16, salt=1)
        for value in range(100):
            b.add_item(value)
        a.merge_in_place(b)
        assert a.registers == b.registers

    def test_estimator_variance_matches_promise(self):
        # Empirical check of Fact 2.2's sigma across independent salts.
        true_count = 2000
        m = 64
        estimates = []
        for salt in range(40):
            sketch = LogLogSketch(num_registers=m, salt=salt)
            for value in range(true_count):
                sketch.add_item(value + salt * 10_000_000)
            estimates.append(sketch.estimate())
        mean = sum(estimates) / len(estimates)
        spread = (sum((e - mean) ** 2 for e in estimates) / len(estimates)) ** 0.5
        relative = spread / true_count
        # Promise is ~1.3/sqrt(64) = 0.1625; allow a generous band.
        assert relative < 0.35
