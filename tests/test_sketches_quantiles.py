"""Tests for the quantile summaries (GK, q-digest) and sampling."""

import random

import pytest

from repro.core.definitions import rank, reference_median
from repro.exceptions import ConfigurationError
from repro.sketches.gk_summary import GKSummary
from repro.sketches.qdigest import QDigest
from repro.sketches.sampling import MergeableSample


def _rank_error(items, estimate, quantile=0.5):
    target = quantile * len(items)
    return abs(rank(items, estimate) - target) / len(items)


class TestGKSummary:
    def test_epsilon_validated(self):
        with pytest.raises(ConfigurationError):
            GKSummary(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            GKSummary(epsilon=1.5)

    def test_exactish_on_small_input(self):
        values = [5, 1, 9, 3, 7]
        summary = GKSummary.from_values(values, epsilon=0.01)
        assert _rank_error(values, summary.median()) <= 0.2

    def test_median_rank_error_bounded(self):
        rng = random.Random(0)
        values = [rng.randrange(0, 100_000) for _ in range(2000)]
        summary = GKSummary.from_values(values, epsilon=0.05)
        assert _rank_error(values, summary.median()) < 0.15

    def test_summary_much_smaller_than_input(self):
        rng = random.Random(1)
        values = [rng.randrange(0, 100_000) for _ in range(5000)]
        summary = GKSummary.from_values(values, epsilon=0.05)
        assert summary.size < len(values) / 5

    def test_merge_preserves_count_and_accuracy(self):
        rng = random.Random(2)
        left = [rng.randrange(0, 10_000) for _ in range(1000)]
        right = [rng.randrange(0, 10_000) for _ in range(1000)]
        merged = GKSummary.from_values(left, 0.05).merge(
            GKSummary.from_values(right, 0.05)
        )
        assert merged.count == 2000
        assert _rank_error(left + right, merged.median()) < 0.2

    def test_quantile_queries_monotone(self):
        rng = random.Random(3)
        values = [rng.randrange(0, 100_000) for _ in range(3000)]
        summary = GKSummary.from_values(values, epsilon=0.05)
        results = [summary.query(q) for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert results == sorted(results)

    def test_query_bounds_validated(self):
        summary = GKSummary.from_values([1, 2, 3], epsilon=0.1)
        with pytest.raises(ConfigurationError):
            summary.query(1.5)

    def test_empty_query_rejected(self):
        with pytest.raises(ConfigurationError):
            GKSummary(epsilon=0.1).query(0.5)

    def test_serialized_bits_scale_with_size(self):
        summary = GKSummary.from_values(list(range(500)), epsilon=0.02)
        assert summary.serialized_bits(1000, 500) > summary.size * 10


class TestQDigest:
    def test_requires_positive_universe(self):
        with pytest.raises(Exception):
            QDigest(universe_size=0)

    def test_value_outside_universe_rejected(self):
        digest = QDigest(universe_size=16)
        with pytest.raises(ConfigurationError):
            digest.add(16)

    def test_total_tracks_insertions(self):
        digest = QDigest(universe_size=64)
        for value in [1, 5, 5, 63]:
            digest.add(value)
        assert digest.total == 4

    def test_median_accuracy_uniform(self):
        rng = random.Random(4)
        universe = 1 << 12
        values = [rng.randrange(0, universe) for _ in range(2000)]
        digest = QDigest.from_values(values, universe_size=universe, compression=64)
        assert _rank_error(values, digest.median()) < 0.2

    def test_compression_bounds_size(self):
        rng = random.Random(5)
        universe = 1 << 12
        values = [rng.randrange(0, universe) for _ in range(4000)]
        digest = QDigest.from_values(values, universe_size=universe, compression=16)
        assert digest.size < 500

    def test_merge_total(self):
        universe = 256
        a = QDigest.from_values([1, 2, 3], universe_size=universe)
        b = QDigest.from_values([100, 200], universe_size=universe)
        merged = a.merge(b)
        assert merged.total == 5

    def test_merge_universe_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            QDigest(universe_size=16).merge(QDigest(universe_size=32))

    def test_quantile_bounds_validated(self):
        digest = QDigest.from_values([1, 2, 3], universe_size=8)
        with pytest.raises(ConfigurationError):
            digest.quantile(-0.1)

    def test_empty_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            QDigest(universe_size=8).quantile(0.5)

    def test_quantiles_monotone(self):
        rng = random.Random(6)
        universe = 1 << 10
        values = [rng.randrange(0, universe) for _ in range(1000)]
        digest = QDigest.from_values(values, universe_size=universe, compression=64)
        results = [digest.quantile(q) for q in (0.1, 0.5, 0.9)]
        assert results == sorted(results)


class TestMergeableSample:
    def test_capacity_enforced(self):
        sample = MergeableSample(capacity=8)
        for value in range(100):
            sample.add(value, origin=value)
        assert sample.size == 8
        assert sample.observed == 100

    def test_merge_collapses_duplicates(self):
        a = MergeableSample(capacity=16, salt=1)
        b = MergeableSample(capacity=16, salt=1)
        for value in range(10):
            a.add(value, origin=value)
            b.add(value, origin=value)
        merged = a.merge(b)
        assert merged.size == 10  # identical (origin, value) pairs collapse

    def test_merge_incompatible_rejected(self):
        with pytest.raises(ConfigurationError):
            MergeableSample(capacity=4).merge(MergeableSample(capacity=8))

    def test_sample_is_roughly_uniform(self):
        # Values 0..999; a bottom-k sample's median should land near 500.
        sample = MergeableSample(capacity=128, salt=7)
        for value in range(1000):
            sample.add(value, origin=value)
        assert 300 < sample.sample_median() < 700

    def test_sample_median_matches_reference_when_everything_fits(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        sample = MergeableSample(capacity=100)
        for index, value in enumerate(values):
            sample.add(value, origin=index)
        assert sample.sample_median() == reference_median(values)

    def test_empty_median_rejected(self):
        with pytest.raises(ConfigurationError):
            MergeableSample(capacity=4).sample_median()

    def test_serialized_bits_grow_with_sample(self):
        small = MergeableSample(capacity=4)
        large = MergeableSample(capacity=64)
        for value in range(100):
            small.add(value, origin=value)
            large.add(value, origin=value)
        assert large.serialized_bits(1000, 100) > small.serialized_bits(1000, 100)
