"""Tests for COUNT DISTINCT (Section 5): exact, approximate, and the 2SD reduction."""

import pytest

from repro.distinct.approximate import ApproxDistinctCountProtocol
from repro.distinct.disjointness import (
    make_disjoint_instance,
    make_intersecting_instance,
    solve_disjointness_via_count_distinct,
)
from repro.distinct.exact import ExactDistinctCountProtocol
from repro.exceptions import ConfigurationError
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links, line_links
from repro.workloads.generators import zipf_values


class TestExactDistinct:
    def test_counts_distinct_values(self):
        items = [1, 5, 5, 9, 1, 1, 12]
        network = SensorNetwork.from_items(items, topology=line_links(len(items)))
        assert ExactDistinctCountProtocol().run(network).value == 4

    def test_all_equal(self):
        network = SensorNetwork.from_items([3] * 20, topology=line_links(20))
        assert ExactDistinctCountProtocol().run(network).value == 1

    def test_all_distinct(self):
        network = SensorNetwork.from_items(list(range(30)), topology=grid_links(6, 5))
        assert ExactDistinctCountProtocol().run(network).value == 30

    def test_zipf_duplicates(self):
        items = zipf_values(200, max_value=10_000, distinct=32, seed=1)
        network = SensorNetwork.from_items(items, topology=grid_links(20, 10))
        assert ExactDistinctCountProtocol().run(network).value == len(set(items))

    def test_cost_grows_linearly_with_distinct_values(self):
        costs = {}
        for n in (32, 128):
            network = SensorNetwork.from_items(
                list(range(n)), topology=line_links(n)
            )
            result = ExactDistinctCountProtocol(domain_max=4 * n).run(network)
            costs[n] = result.max_node_bits
        # Distinct count quadruples; the hottest node's traffic should grow
        # by a comparable factor (Theorem 5.1's behaviour), far beyond polylog.
        assert costs[128] >= 2.5 * costs[32]

    def test_cost_stays_small_when_duplication_is_heavy(self):
        many_duplicates = SensorNetwork.from_items([7] * 128, topology=line_links(128))
        all_distinct = SensorNetwork.from_items(list(range(128)), topology=line_links(128))
        dup_cost = ExactDistinctCountProtocol().run(many_duplicates).max_node_bits
        distinct_cost = ExactDistinctCountProtocol().run(all_distinct).max_node_bits
        assert dup_cost < distinct_cost / 5

    def test_bitmap_encoding_caps_cost_for_small_domain(self):
        # With a tiny declared domain the bitmap encoding bounds per-edge cost.
        items = list(range(60))
        network = SensorNetwork.from_items(items, topology=line_links(60))
        result = ExactDistinctCountProtocol(domain_max=63).run(network)
        # Each edge carries at most a 64-bit bitmap (plus the broadcast).
        assert result.max_node_bits <= 2 * 64 + 16


class TestApproxDistinct:
    def test_estimate_accuracy(self):
        items = list(range(400))
        network = SensorNetwork.from_items(items, topology=grid_links(20))
        outcome = ApproxDistinctCountProtocol(num_registers=256, seed=1).run(network).value
        assert abs(outcome.estimate - 400) / 400 < 0.3

    def test_duplicates_do_not_inflate_estimate(self):
        items = [11, 22, 33] * 60
        network = SensorNetwork.from_items(items, topology=grid_links(14, 13))
        outcome = ApproxDistinctCountProtocol(num_registers=128, seed=2).run(network).value
        assert outcome.estimate < 30

    def test_cost_flat_in_distinct_count(self):
        costs = []
        for n in (64, 256):
            network = SensorNetwork.from_items(list(range(n)), topology=line_links(n))
            result = ApproxDistinctCountProtocol(num_registers=64, seed=3).run(network)
            costs.append(result.max_node_bits)
        assert max(costs) <= 1.2 * min(costs)

    def test_cost_far_below_exact_for_large_instances(self):
        n = 256
        network = SensorNetwork.from_items(list(range(n)), topology=line_links(n))
        exact_bits = ExactDistinctCountProtocol().run(network).max_node_bits
        network.reset_ledger()
        approx_bits = ApproxDistinctCountProtocol(num_registers=64, seed=4).run(
            network
        ).max_node_bits
        assert approx_bits < exact_bits / 4

    def test_guaranteed_factor_formula(self):
        outcome_protocol = ApproxDistinctCountProtocol(num_registers=64)
        network = SensorNetwork.from_items([1, 2, 3, 4], topology=line_links(4))
        outcome = outcome_protocol.run(network).value
        assert outcome.guaranteed_factor == pytest.approx(3.15 / 8.0)

    def test_too_few_registers_rejected(self):
        with pytest.raises(ConfigurationError):
            ApproxDistinctCountProtocol(num_registers=2)


class TestDisjointnessInstances:
    def test_disjoint_instance_properties(self):
        instance = make_disjoint_instance(32, seed=1)
        assert instance.disjoint
        assert instance.true_distinct_count == 64
        assert instance.num_nodes == 64

    def test_intersecting_instance_properties(self):
        instance = make_intersecting_instance(32, overlap=3, seed=2)
        assert not instance.disjoint
        assert instance.true_distinct_count == 64 - 3

    def test_overlap_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            make_intersecting_instance(8, overlap=0)
        with pytest.raises(ConfigurationError):
            make_intersecting_instance(8, overlap=9)

    def test_domain_must_fit_two_sets(self):
        with pytest.raises(ConfigurationError):
            make_disjoint_instance(32, domain_max=40)

    def test_network_embedding_is_a_line(self):
        instance = make_disjoint_instance(16, seed=3)
        network = instance.build_network()
        assert network.num_nodes == 32
        assert network.tree.height == 31
        left, right = instance.cut_edge()
        assert right == left + 1


class TestReduction:
    def test_exact_protocol_decides_disjointness_correctly(self):
        for seed in range(3):
            disjoint = make_disjoint_instance(24, seed=seed)
            overlapping = make_intersecting_instance(24, overlap=1, seed=seed)
            exact = ExactDistinctCountProtocol()
            assert solve_disjointness_via_count_distinct(disjoint, exact).correct
            assert solve_disjointness_via_count_distinct(overlapping, exact).correct

    def test_exact_protocol_moves_linear_bits_across_the_cut(self):
        small = make_disjoint_instance(16, seed=1)
        large = make_disjoint_instance(128, seed=1)
        exact = ExactDistinctCountProtocol()
        small_verdict = solve_disjointness_via_count_distinct(small, exact)
        large_verdict = solve_disjointness_via_count_distinct(large, exact)
        assert large_verdict.cut_bits >= 4 * small_verdict.cut_bits

    def test_approximate_protocol_cannot_distinguish_overlap_of_one(self):
        # The flip side of Theorem 5.1: a protocol cheap enough to avoid the
        # lower bound cannot reliably tell "disjoint" from "one shared value".
        instance = make_intersecting_instance(64, overlap=1, seed=4)
        approx = ApproxDistinctCountProtocol(num_registers=64, seed=5)
        verdict = solve_disjointness_via_count_distinct(instance, approx, tolerance=0.02)
        # Either it wrongly reports disjoint, or its count is far from exact —
        # both demonstrate it does not solve 2SD.
        assert (not verdict.correct) or (
            abs(verdict.distinct_count_reported - verdict.distinct_count_true) >= 1
        )

    def test_approximate_protocol_is_cheap_across_the_cut(self):
        instance = make_disjoint_instance(128, seed=6)
        approx = ApproxDistinctCountProtocol(num_registers=64, seed=7)
        exact = ExactDistinctCountProtocol()
        approx_verdict = solve_disjointness_via_count_distinct(instance, approx)
        exact_verdict = solve_disjointness_via_count_distinct(instance, exact)
        assert approx_verdict.cut_bits < exact_verdict.cut_bits / 4
