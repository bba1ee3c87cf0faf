"""Tests for the deterministic hash functions used by sketches."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.hashing import hash64, hash64_array, hash_to_unit, leading_rank

#: Every uint64 word, with the edges drawn often.
WORDS = st.one_of(st.sampled_from([0, 1, 1 << 63, (1 << 64) - 1]), st.integers(0, (1 << 64) - 1))


class TestHash64:
    def test_deterministic(self):
        assert hash64(12345) == hash64(12345)

    def test_salt_changes_value(self):
        assert hash64(12345, salt=1) != hash64(12345, salt=2)

    def test_range_is_64_bits(self):
        for value in range(200):
            hashed = hash64(value)
            assert 0 <= hashed < (1 << 64)

    def test_no_trivial_collisions(self):
        values = {hash64(value) for value in range(10_000)}
        assert len(values) == 10_000

    def test_avalanche_bias_is_small(self):
        # Flipping the input by one should change roughly half the output bits.
        flips = []
        for value in range(500):
            xor = hash64(value) ^ hash64(value + 1)
            flips.append(bin(xor).count("1"))
        mean_flips = sum(flips) / len(flips)
        assert 24 < mean_flips < 40


class TestHash64Array:
    """The numpy twin is :func:`hash64` element-wise, wrapping silently."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(WORDS, min_size=1, max_size=16), salt=WORDS)
    def test_scalar_salt(self, values, salt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hashed = hash64_array(np.array(values, dtype=np.uint64), salt)
        assert hashed.dtype == np.uint64
        assert hashed.tolist() == [hash64(value, salt) for value in values]

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=16))
    def test_array_salt(self, pairs):
        values, salts = (np.array(column, dtype=np.uint64) for column in zip(*pairs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hashed = hash64_array(values, salts)
        assert hashed.tolist() == [hash64(value, salt) for value, salt in pairs]

    def test_zero_dimensional_and_numpy_scalar_salt(self):
        top = (1 << 64) - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert int(hash64_array(top, np.uint64(top))) == hash64(top, top)
            assert int(hash64_array(np.uint64(1 << 63), top)) == hash64(1 << 63, top)

    def test_empty(self):
        assert hash64_array(np.array([], dtype=np.uint64), 3).size == 0


class TestHashToUnit:
    def test_unit_interval(self):
        for value in range(300):
            u = hash_to_unit(value)
            assert 0.0 <= u < 1.0

    def test_roughly_uniform(self):
        values = [hash_to_unit(value, salt=9) for value in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55
        below_quarter = sum(1 for value in values if value < 0.25) / len(values)
        assert 0.2 < below_quarter < 0.3


class TestLeadingRank:
    def test_zero_value(self):
        assert leading_rank(0, width=8) == 9

    def test_full_value_has_rank_one(self):
        assert leading_rank((1 << 64) - 1) == 1

    def test_geometric_distribution_shape(self):
        # Rank k should occur with probability ~2^-k over uniform hashes.
        ranks = [leading_rank(hash64(value, salt=3)) for value in range(20_000)]
        fraction_rank1 = sum(1 for rank in ranks if rank == 1) / len(ranks)
        fraction_rank2 = sum(1 for rank in ranks if rank == 2) / len(ranks)
        assert 0.45 < fraction_rank1 < 0.55
        assert 0.2 < fraction_rank2 < 0.3

    def test_smaller_width(self):
        assert leading_rank(1, width=4) == 4
