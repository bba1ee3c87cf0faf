"""Tests for the α-counting protocol (Fact 2.2) and push-sum gossip."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.node import ItemColumns
from repro.network.radio import DuplicatingRadio
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links, line_links, single_hop_links
from repro.protocols.aggregates import CountProtocol
from repro.protocols.apx_count import ApproxCountProtocol
from repro.protocols.gossip import PushSumGossip
from repro.protocols.predicates import LessThanPredicate
from repro.workloads.generators import uniform_values


def _grid_network(n_side, max_value=10_000, seed=0):
    n = n_side * n_side
    items = uniform_values(n, max_value=max_value, seed=seed)
    return SensorNetwork.from_items(items, topology=grid_links(n_side)), items


class TestApproxCountConfiguration:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ApproxCountProtocol(mode="bogus")

    def test_unknown_sketch_rejected(self):
        with pytest.raises(ConfigurationError):
            ApproxCountProtocol(sketch="bogus")

    def test_relative_sigma_reflects_registers(self):
        assert (
            ApproxCountProtocol(num_registers=256).relative_sigma
            < ApproxCountProtocol(num_registers=16).relative_sigma
        )


class TestApproxCountAccuracy:
    def test_estimate_within_three_sigma_typically(self):
        network, items = _grid_network(12, seed=1)
        protocol = ApproxCountProtocol(num_registers=256, seed=3)
        estimates = [protocol.run(network).value.estimate for _ in range(5)]
        mean_estimate = sum(estimates) / len(estimates)
        sigma = protocol.relative_sigma
        assert abs(mean_estimate - len(items)) / len(items) < 3 * sigma

    def test_independent_invocations_differ(self):
        network, _ = _grid_network(8, seed=2)
        protocol = ApproxCountProtocol(num_registers=64, seed=5)
        estimates = {round(protocol.run(network).value.estimate, 3) for _ in range(6)}
        assert len(estimates) > 1

    def test_predicate_restricted_count(self):
        network, items = _grid_network(10, seed=3)
        threshold = sorted(items)[len(items) // 4]
        protocol = ApproxCountProtocol(num_registers=256, seed=7)
        estimate = protocol.run(
            network, predicate=LessThanPredicate(threshold=threshold)
        ).value.estimate
        true_count = sum(1 for item in items if item < threshold)
        assert abs(estimate - true_count) / max(1, true_count) < 0.6

    def test_distinct_mode_collapses_duplicates(self):
        items = [7] * 80 + list(range(100, 120))
        network = SensorNetwork.from_items(items, topology=grid_links(10))
        protocol = ApproxCountProtocol(num_registers=256, mode="distinct", seed=9)
        estimate = protocol.run(network).value.estimate
        assert estimate < 60  # true distinct count is 21, multiset count is 100

    def test_hyperloglog_variant_works(self):
        network, items = _grid_network(10, seed=4)
        protocol = ApproxCountProtocol(num_registers=256, sketch="hyperloglog", seed=11)
        estimate = protocol.run(network).value.estimate
        assert abs(estimate - len(items)) / len(items) < 0.5

    def test_items_override(self):
        network, _ = _grid_network(6, seed=5)
        protocol = ApproxCountProtocol(num_registers=256, seed=13)
        ptr = np.zeros(network.num_nodes + 1, dtype=np.int64)
        empty = ItemColumns(ptr, np.zeros(0, dtype=np.int64))
        assert protocol.run(network, items=empty).value.estimate == 0.0


class TestCounterDraws:
    """The counter-based multiset draws are an unbiased LogLog input: over
    300 seeded invocations the mean relative error is near zero and its
    spread is the predicted σ = 1.30/√m (0.1625 at m = 64)."""

    @staticmethod
    def relative_errors(network, truth, invocations=300):
        protocol = ApproxCountProtocol(num_registers=64, seed=11)
        estimates = np.array(
            [protocol.run(network).value.estimate for _ in range(invocations)]
        )
        return estimates / truth - 1.0, protocol.relative_sigma

    def check(self, errors, sigma):
        assert sigma == pytest.approx(1.30 / 8)
        assert abs(errors.mean()) <= 0.04
        assert 0.8 * sigma <= errors.std() <= 1.2 * sigma

    def test_one_item_per_node(self):
        network = SensorNetwork.from_items(
            uniform_values(1024, max_value=1 << 20, seed=4), topology="grid"
        )
        self.check(*self.relative_errors(network, 1024))

    def test_four_items_per_node(self):
        """Every node's four items take counters 0-3 under one node salt."""
        network = SensorNetwork.from_items([0] * 256, topology="grid")
        values = uniform_values(1024, max_value=1 << 20, seed=5)
        network.assign_items(
            {node: values[4 * node : 4 * node + 4] for node in network.node_ids()}
        )
        self.check(*self.relative_errors(network, 1024))

    def test_per_edge_sketches_read_the_same_draws(self):
        """The scalar ``hash64`` the per-edge path folds, node by node, gives
        the root the same registers as the array path's one-call hashes."""
        estimates = {}
        for execution in ("batched", "per-edge"):
            network = SensorNetwork.from_items(
                [0] * 36, topology="grid", execution=execution
            )
            network.assign_items({node: [node] * (node % 4) for node in range(36)})
            protocol = ApproxCountProtocol(num_registers=64, seed=2)
            estimates[execution] = [protocol.run(network).value.estimate for _ in range(3)]
        assert estimates["batched"] == estimates["per-edge"]


class TestApproxCountComplexity:
    """Fact 2.2: cost is O(m log log N) — crucially, *flat* in N for fixed m."""

    def test_per_node_bits_flat_in_n(self):
        costs = []
        for side in (6, 12, 18):
            network, _ = _grid_network(side, seed=6)
            protocol = ApproxCountProtocol(num_registers=32, seed=1)
            costs.append(protocol.run(network).max_node_bits)
        assert max(costs) <= 1.2 * min(costs)

    def test_per_node_bits_linear_in_registers(self):
        network, _ = _grid_network(8, seed=7)
        small = ApproxCountProtocol(num_registers=16, seed=1).run(network).max_node_bits
        network.reset_ledger()
        large = ApproxCountProtocol(num_registers=256, seed=1).run(network).max_node_bits
        assert 8 <= large / small <= 24

    def test_cheaper_than_exact_count_payload_for_large_registers(self):
        # Not a paper claim per se, but the sketch bits should match
        # serialized_bits of the sketch and be charged uniformly per edge.
        from repro.sketches.loglog import LogLogSketch

        network, _ = _grid_network(6, seed=8)
        result = ApproxCountProtocol(num_registers=16, seed=1).run(network)
        assert result.value.sketch_bits == LogLogSketch(num_registers=16).serialized_bits(1 << 30)
        assert result.value.sketch_bits <= 16 * 8


class TestDuplicateInsensitivity:
    def test_distinct_mode_immune_to_duplicating_radio(self):
        items = list(range(100))
        reliable = SensorNetwork.from_items(items, topology=grid_links(10))
        duplicating = SensorNetwork.from_items(
            items,
            topology=grid_links(10),
            radio=DuplicatingRadio(duplicate_rate=0.5, seed=3),
        )
        protocol_a = ApproxCountProtocol(num_registers=128, mode="distinct", seed=21)
        protocol_b = ApproxCountProtocol(num_registers=128, mode="distinct", seed=21)
        estimate_reliable = protocol_a.run(reliable).value.estimate
        estimate_duplicating = protocol_b.run(duplicating).value.estimate
        assert estimate_reliable == pytest.approx(estimate_duplicating)

    def test_exact_count_unaffected_because_tree_retransmits_identical_partials(self):
        # The duplicating radio re-delivers the same partial aggregate; the
        # tree protocol's result is unchanged but its cost goes up.
        items = list(range(50))
        network = SensorNetwork.from_items(
            items,
            topology=grid_links(8),
            radio=DuplicatingRadio(duplicate_rate=0.5, seed=5),
        )
        result = CountProtocol().run(network)
        assert result.value == 50


class TestPushSumGossip:
    def test_average_on_clique(self):
        items = list(range(1, 33))
        network = SensorNetwork.from_items(items, topology=single_hop_links(32))
        gossip = PushSumGossip(seed=1)
        outcome = gossip.run(network, items).value
        true_average = sum(items) / len(items)
        assert abs(outcome.estimate - true_average) / true_average < 0.05

    def test_sum_target(self):
        items = [1] * 16
        network = SensorNetwork.from_items(items, topology=single_hop_links(16))
        gossip = PushSumGossip(seed=2, target="sum", rounds=200)
        outcome = gossip.run(network, items).value
        assert abs(outcome.estimate - 16) / 16 < 0.2

    def test_line_converges_more_slowly(self):
        items = list(range(1, 17))
        clique = SensorNetwork.from_items(items, topology=single_hop_links(16))
        line = SensorNetwork.from_items(items, topology=line_links(16))
        rounds = 30
        clique_outcome = PushSumGossip(seed=3, rounds=rounds).run(clique, items).value
        line_outcome = PushSumGossip(seed=3, rounds=rounds).run(line, items).value
        assert clique_outcome.max_relative_spread <= line_outcome.max_relative_spread + 1e-9

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            PushSumGossip(target="median")

    def test_communication_charged_every_round(self):
        items = [5] * 9
        network = SensorNetwork.from_items(items, topology=grid_links(3))
        PushSumGossip(seed=4, rounds=10).run(network, [1.0] * 9)
        assert network.ledger.rounds == 10
        assert network.ledger.total_messages == 10 * 9
