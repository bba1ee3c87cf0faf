"""Tests for REP_COUNTP and the repetition policy (Fig. 2's subroutine)."""

import pytest

from repro.core.rep_count import RepeatedApproxCount, RepetitionPolicy
from repro.exceptions import ConfigurationError
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links
from repro.protocols.apx_count import ApproxCountProtocol
from repro.protocols.predicates import LessThanPredicate
from repro.workloads.generators import uniform_values


class TestRepetitionPolicy:
    def test_paper_constants(self):
        policy = RepetitionPolicy.paper()
        assert policy.count_repetitions(10.0) == 20
        assert policy.probe_repetitions(10.0) == 320
        assert policy.cap is None

    def test_practical_cap(self):
        policy = RepetitionPolicy.practical(cap=8)
        assert policy.count_repetitions(10.0) == 8
        assert policy.probe_repetitions(100.0) == 8

    def test_floor_applies_for_tiny_q(self):
        policy = RepetitionPolicy(count_multiplier=0.01, probe_multiplier=0.01)
        assert policy.count_repetitions(0.1) >= 1
        assert policy.probe_repetitions(0.1) >= 1

    def test_ceiling_of_fractional_repetitions(self):
        policy = RepetitionPolicy.paper()
        assert policy.count_repetitions(1.3) == 3  # ceil(2 * 1.3)

    def test_invalid_multipliers_rejected(self):
        with pytest.raises(ConfigurationError):
            RepetitionPolicy(count_multiplier=0)

    def test_cap_below_floor_rejected(self):
        with pytest.raises(ConfigurationError):
            RepetitionPolicy(cap=1, floor=2)


class TestRepeatedApproxCount:
    @pytest.fixture
    def network_and_items(self):
        items = uniform_values(144, max_value=20_000, seed=1)
        return SensorNetwork.from_items(items, topology=grid_links(12)), items

    def test_average_tracks_truth(self, network_and_items):
        network, items = network_and_items
        counter = ApproxCountProtocol(num_registers=64, seed=2)
        rep = RepeatedApproxCount(counter)
        estimate = rep.run(network, repetitions=6).value
        assert abs(estimate - len(items)) / len(items) < 3 * counter.relative_sigma

    def test_more_repetitions_reduce_spread(self, network_and_items):
        network, items = network_and_items
        counter = ApproxCountProtocol(num_registers=16, seed=3)
        singles = [
            RepeatedApproxCount(counter).run(network, repetitions=1).value
            for _ in range(8)
        ]
        averaged = [
            RepeatedApproxCount(counter).run(network, repetitions=8).value
            for _ in range(8)
        ]

        def spread(values):
            mean = sum(values) / len(values)
            return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5

        assert spread(averaged) < spread(singles) + 1e-9

    def test_predicate_restriction(self, network_and_items):
        network, items = network_and_items
        threshold = sorted(items)[len(items) // 2]
        counter = ApproxCountProtocol(num_registers=128, seed=4)
        rep = RepeatedApproxCount(counter)
        estimate = rep.run(
            network, repetitions=4, predicate=LessThanPredicate(threshold=threshold)
        ).value
        true_count = sum(1 for item in items if item < threshold)
        assert abs(estimate - true_count) / true_count < 0.5

    def test_cost_scales_linearly_with_repetitions(self, network_and_items):
        network, _ = network_and_items
        counter = ApproxCountProtocol(num_registers=32, seed=5)
        one = RepeatedApproxCount(counter).run(network, repetitions=1)
        four = RepeatedApproxCount(counter).run(network, repetitions=4)
        assert 3.5 <= four.total_bits / one.total_bits <= 4.5

    def test_zero_repetitions_rejected(self, network_and_items):
        network, _ = network_and_items
        counter = ApproxCountProtocol(num_registers=16, seed=6)
        with pytest.raises(Exception):
            RepeatedApproxCount(counter).run(network, repetitions=0)

    def test_relative_sigma_passthrough(self):
        counter = ApproxCountProtocol(num_registers=64)
        assert RepeatedApproxCount(counter).relative_sigma == counter.relative_sigma
