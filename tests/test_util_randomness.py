"""Tests for RNG plumbing."""

import random

from repro._util.randomness import make_rng


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_passthrough_of_existing_generator(self):
        generator = random.Random(3)
        assert make_rng(generator) is generator

    def test_none_seed_is_allowed(self):
        value = make_rng(None).random()
        assert 0.0 <= value < 1.0
