"""Tests for the deterministic median and order-statistic protocols (Fig. 1)."""

import math

import pytest

from repro.core.median import DeterministicMedianProtocol
from repro.core.order_statistics import DeterministicOrderStatisticProtocol
from repro.core.definitions import reference_median, reference_order_statistic
from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.simulator import SensorNetwork
from repro.network.topology import (
    grid_links,
    line_links,
    random_geometric_links,
    single_hop_links,
    star_links,
)
from repro.workloads.generators import generate_workload


def _network(items, topology=None):
    if topology is None:
        side = max(1, math.isqrt(len(items)))
        while side * side < len(items):
            side += 1
        topology = grid_links(side)
        # Trim the grid is not possible; instead use a line when sizes mismatch.
        if topology.num_nodes != len(items):
            topology = line_links(len(items))
    return SensorNetwork.from_items(items, topology=topology)


class TestMedianCorrectness:
    @pytest.mark.parametrize(
        "items",
        [
            [5],
            [5, 9],
            [9, 5],
            [1, 2, 3],
            [3, 1, 2],
            [1, 2, 3, 4],
            [7, 7, 7, 7, 7],
            [0, 0, 0, 1],
            [0, 1_000_000],
            [13, 5, 8, 21, 3, 34, 1, 2, 55],
            list(range(100)),
            list(range(100, 0, -1)),
        ],
    )
    def test_matches_reference(self, items):
        network = _network(items, topology=line_links(len(items)))
        result = DeterministicMedianProtocol().run(network)
        assert result.value.median == reference_median(items)

    @pytest.mark.parametrize(
        "workload", ["uniform", "zipf", "clustered", "bimodal", "adversarial_near_median"]
    )
    def test_matches_reference_on_workloads(self, workload):
        items = generate_workload(workload, 81, max_value=50_000, seed=3)
        network = _network(items, topology=grid_links(9))
        result = DeterministicMedianProtocol(domain_max=50_000).run(network)
        assert result.value.median == reference_median(items)

    @pytest.mark.parametrize(
        "topology_factory",
        [
            lambda n: line_links(n),
            lambda n: single_hop_links(n),
            lambda n: star_links(n),
            lambda n: random_geometric_links(n, seed=5),
        ],
    )
    def test_topology_independent(self, topology_factory):
        items = generate_workload("uniform", 49, max_value=10_000, seed=4)
        network = SensorNetwork.from_items(items, topology=topology_factory(49))
        result = DeterministicMedianProtocol().run(network)
        assert result.value.median == reference_median(items)

    def test_multiple_items_per_node(self):
        network = SensorNetwork.from_items([0, 0, 0], topology=line_links(3))
        network.assign_items({0: [10, 20], 1: [30], 2: [40, 50, 60]})
        items = [10, 20, 30, 40, 50, 60]
        result = DeterministicMedianProtocol().run(network)
        assert result.value.median == reference_median(items)

    def test_empty_network_rejected(self):
        network = SensorNetwork.from_items([1], topology=line_links(1))
        network.clear_items()
        with pytest.raises(EmptyNetworkError):
            DeterministicMedianProtocol().run(network)

    def test_outcome_metadata(self):
        items = [4, 8, 15, 16, 23, 42]
        network = _network(items, topology=line_links(6))
        outcome = DeterministicMedianProtocol().run(network).value
        assert outcome.n == 6
        assert outcome.minimum == 4
        assert outcome.maximum == 42
        assert outcome.probes >= outcome.binary_search_iterations


class TestMedianComplexity:
    """Theorem 3.2: O(log N) probes and O((log N)^2) bits per node."""

    def test_probe_count_is_logarithmic_in_spread(self):
        items = generate_workload("uniform", 64, max_value=(1 << 16), seed=1)
        network = _network(items, topology=grid_links(8))
        outcome = DeterministicMedianProtocol().run(network).value
        spread = outcome.maximum - outcome.minimum
        assert outcome.binary_search_iterations <= math.ceil(math.log2(spread)) + 1

    def test_per_node_bits_grow_polylogarithmically(self):
        costs = {}
        for side in (5, 10, 20):
            n = side * side
            items = generate_workload("uniform", n, max_value=n * n, seed=2)
            network = SensorNetwork.from_items(items, topology=grid_links(side))
            result = DeterministicMedianProtocol(domain_max=n * n).run(network)
            costs[n] = result.max_node_bits
        # N grows 16x from 25 to 400; (log N)^2 grows ~3.5x.  Allow head-room
        # but rule out linear growth (which would be 16x).
        assert costs[400] / costs[25] < 6

    def test_far_cheaper_than_item_count_times_width(self):
        # At N = 400 the binary-search protocol already undercuts the
        # ship-all-values cost (N log X̄ bits at a node adjacent to the root)
        # by a comfortable factor, and the gap widens with N (experiment E8).
        n = 400
        items = generate_workload("uniform", n, max_value=n * n, seed=3)
        network = SensorNetwork.from_items(items, topology=grid_links(20))
        result = DeterministicMedianProtocol(domain_max=n * n).run(network)
        naive_bits = n * math.ceil(math.log2(n * n))
        assert result.max_node_bits < naive_bits / 3


class TestOrderStatistics:
    @pytest.mark.parametrize("k", [1, 2, 5, 9, 13, 17])
    def test_absolute_rank(self, k):
        items = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2]
        network = _network(items, topology=line_links(len(items)))
        result = DeterministicOrderStatisticProtocol(k=k).run(network)
        assert result.value.value == reference_order_statistic(items, k)

    @pytest.mark.parametrize("quantile", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0])
    def test_quantiles(self, quantile):
        items = generate_workload("uniform", 100, max_value=10_000, seed=6)
        network = SensorNetwork.from_items(items, topology=grid_links(10))
        result = DeterministicOrderStatisticProtocol(quantile=quantile).run(network)
        assert result.value.value == reference_order_statistic(items, quantile * 100)

    def test_min_and_max_as_order_statistics(self):
        items = [42, 17, 99, 3, 56]
        network = _network(items, topology=line_links(5))
        low = DeterministicOrderStatisticProtocol(k=1).run(network).value.value
        high = DeterministicOrderStatisticProtocol(k=5).run(network).value.value
        assert low == min(items)
        assert high == max(items)

    def test_requires_exactly_one_target(self):
        with pytest.raises(ConfigurationError):
            DeterministicOrderStatisticProtocol()
        with pytest.raises(ConfigurationError):
            DeterministicOrderStatisticProtocol(k=3, quantile=0.5)

    def test_invalid_targets_rejected(self):
        with pytest.raises(ConfigurationError):
            DeterministicOrderStatisticProtocol(k=0)
        with pytest.raises(ConfigurationError):
            DeterministicOrderStatisticProtocol(quantile=1.5)

    def test_k_beyond_item_count_rejected_at_runtime(self):
        items = [1, 2, 3]
        network = _network(items, topology=line_links(3))
        with pytest.raises(ConfigurationError):
            DeterministicOrderStatisticProtocol(k=10).run(network)

    def test_duplicate_heavy_input(self):
        items = [5] * 40 + [9] * 10
        network = _network(items, topology=line_links(50))
        for quantile in (0.2, 0.5, 0.79, 0.9):
            network.reset_ledger()
            result = DeterministicOrderStatisticProtocol(quantile=quantile).run(network)
            assert result.value.value == reference_order_statistic(items, quantile * 50)
