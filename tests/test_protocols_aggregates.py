"""Tests for broadcast, convergecast and the TAG-style aggregates (Fact 2.1)."""

import pytest

from repro.core import DeterministicMedianProtocol
from repro.distinct import ExactDistinctCountProtocol
from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.node import ItemColumns
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links, line_links, single_hop_links
from repro.protocols.aggregates import (
    AverageProtocol,
    CountProtocol,
    MaxProtocol,
    MinProtocol,
    SumProtocol,
)
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.workloads.generators import uniform_values


class TestBroadcast:
    @pytest.mark.parametrize("execution", ["per-edge", "batched"])
    def test_reaches_every_node(self, small_items, execution):
        """Delivery is what the ledger records: every node but the root
        receives the payload's bits once."""
        network = SensorNetwork.from_items(
            small_items, topology=grid_links(3, 3), execution=execution
        )
        assert broadcast(network, {"q": 1}, 16) is None
        received = {
            node: network.ledger.traffic(node).bits_received
            for node in network.node_ids()
        }
        assert received == {
            node: 0 if node == network.root_id else 16 for node in network.node_ids()
        }

    def test_every_tree_edge_charged_once(self, small_network):
        broadcast(small_network, "x", 10)
        assert small_network.ledger.total_bits == 10 * (small_network.num_nodes - 1)

    def test_leaf_cost_is_receive_only(self, line_network):
        broadcast(line_network, "x", 10)
        last = line_network.num_nodes - 1
        assert line_network.ledger.traffic(last).bits_sent == 0
        assert line_network.ledger.traffic(last).bits_received == 10

    def test_rounds_equal_tree_height(self, line_network):
        broadcast(line_network, "x", 10)
        assert line_network.ledger.rounds == line_network.tree.height


class TestConvergecast:
    def test_sum_aggregation(self, small_network):
        total = convergecast(
            small_network,
            small_network.item_columns.sums(),
            lambda a, b: a + b,
            16,
        )
        assert total == sum(small_network.all_items())

    def test_callable_size(self, line_network):
        convergecast(
            line_network,
            line_network.item_columns.sums(),
            lambda a, b: a + b,
            lambda value: 100,
        )
        assert line_network.ledger.total_bits == 100 * (line_network.num_nodes - 1)

    def test_root_sends_nothing(self, small_network):
        ones = [1] * small_network.num_nodes
        convergecast(small_network, ones, lambda a, b: a + b, 8)
        assert small_network.ledger.traffic(small_network.root_id).bits_sent == 0


class TestExtremumProtocols:
    def test_min_and_max(self, small_network, small_items):
        assert MinProtocol().run(small_network).value == min(small_items)
        assert MaxProtocol().run(small_network).value == max(small_items)

    def test_with_domain_hint(self, small_network, small_items):
        result = MaxProtocol(domain_max=1000).run(small_network)
        assert result.value == max(small_items)

    def test_nodes_without_items_are_skipped(self):
        network = SensorNetwork.from_items([5, 9, 2], topology=line_links(3))
        network.assign_items({1: []})
        assert MinProtocol().run(network).value == 2
        assert MaxProtocol().run(network).value == 5

    def test_empty_network_rejected(self):
        network = SensorNetwork.from_items([1, 2], topology=line_links(2))
        network.clear_items()
        with pytest.raises(EmptyNetworkError):
            MinProtocol().run(network)

    def test_items_replace_the_network_items(self, small_network, small_items):
        columns = small_network.item_columns
        doubled = ItemColumns(columns.ptr, 2 * columns.values)
        assert MaxProtocol().run(small_network, items=doubled).value == 2 * max(
            small_items
        )
        assert MaxProtocol().run(small_network).value == max(small_items)


class TestDomainMaxIsEnforced:
    """An item above ``domain_max`` does not fit the fixed-width field the
    protocol charges for, so it is refused before anything is sent; an item
    of a node the tree does not span is never read, so it is not refused."""

    #: case -> (protocol factory, the protocol the error names)
    PROTOCOLS = {
        "MIN": (lambda: MinProtocol(domain_max=10), "MIN"),
        "MAX": (lambda: MaxProtocol(domain_max=10), "MAX"),
        "COUNT_DISTINCT": (
            lambda: ExactDistinctCountProtocol(domain_max=10),
            "COUNT_DISTINCT",
        ),
        "MEDIAN": (lambda: DeterministicMedianProtocol(domain_max=10), "MIN"),
    }

    @staticmethod
    def grid(execution):
        """A 3x3 grid of in-domain items; its deepest node (a leaf) holds 1000."""
        network = SensorNetwork.from_items(
            [3, 1, 4, 1, 5, 9, 2, 6, 5], topology="grid", execution=execution
        )
        holder = network.flat_tree.node_ids[-1]
        network.assign_items({holder: [1000]})
        return network, holder

    @pytest.mark.parametrize("execution", ["batched", "per-edge"])
    @pytest.mark.parametrize("case", sorted(PROTOCOLS))
    def test_out_of_domain_item_is_refused(self, case, execution):
        factory, name = self.PROTOCOLS[case]
        network, _ = self.grid(execution)
        with pytest.raises(ConfigurationError, match=f"{name}: item 1000 .*domain_max=10"):
            factory().run(network)
        assert network.ledger.total_bits == 0

    @pytest.mark.parametrize("execution", ["batched", "per-edge"])
    @pytest.mark.parametrize("case", sorted(PROTOCOLS))
    def test_detached_nodes_item_is_not_read(self, case, execution):
        factory, _ = self.PROTOCOLS[case]
        network, holder = self.grid(execution)
        network.set_tree(network.flat_tree.rewire(removed=[holder]))
        assert network.items_of(holder) == [1000]
        assert factory().run(network).total_bits > 0


class TestCountSumAverage:
    def test_count(self, small_network, small_items):
        assert CountProtocol().run(small_network).value == len(small_items)

    def test_count_with_multiple_items_per_node(self):
        network = SensorNetwork.from_items([1, 2, 3], topology=line_links(3))
        network.assign_items({0: [1, 2, 3, 4]})
        assert CountProtocol().run(network).value == 6

    def test_sum(self, small_network, small_items):
        assert SumProtocol().run(small_network).value == sum(small_items)

    def test_average(self, small_network, small_items):
        result = AverageProtocol().run(small_network)
        assert result.value == pytest.approx(sum(small_items) / len(small_items))

    def test_average_empty_rejected(self):
        network = SensorNetwork.from_items([1], topology=line_links(1))
        network.clear_items()
        with pytest.raises(EmptyNetworkError):
            AverageProtocol().run(network)


class TestFact21Complexity:
    """Fact 2.1: primitive aggregates cost O(log N) bits per node."""

    @pytest.mark.parametrize("protocol_cls", [MinProtocol, MaxProtocol, CountProtocol, SumProtocol])
    def test_per_node_bits_logarithmic(self, protocol_cls):
        costs = {}
        for side in (6, 12):
            n = side * side
            items = uniform_values(n, max_value=n * n, seed=1)
            network = SensorNetwork.from_items(items, topology=grid_links(side))
            result = protocol_cls().run(network)
            costs[n] = result.max_node_bits
        # Quadrupling N should grow the per-node cost far slower than 4x
        # (log(N^2) only doubles); allow a generous factor.
        assert costs[144] <= 2.5 * costs[36]

    def test_count_cost_independent_of_topology_hubs(self):
        items = uniform_values(30, max_value=1000, seed=2)
        clique = SensorNetwork.from_items(items, topology=single_hop_links(30))
        line = SensorNetwork.from_items(items, topology=line_links(30))
        clique_cost = CountProtocol().run(clique).max_node_bits
        line_cost = CountProtocol().run(line).max_node_bits
        # With the bounded-degree tree the clique is not much worse than the line.
        assert clique_cost <= 4 * line_cost

    def test_result_metrics_populated(self, small_network):
        result = CountProtocol().run(small_network)
        assert result.total_bits > 0
        assert result.messages > 0
        assert result.rounds > 0
        assert result.max_node_bits <= result.total_bits
