"""Tests for the SensorNetwork simulator."""

import pytest

from repro.exceptions import ConfigurationError, EmptyNetworkError, TopologyError
from repro.network.radio import LossyRadio
from repro.network.simulator import SensorNetwork
from repro.network.topology import line_links, star_links


class TestConstruction:
    def test_from_items_assigns_one_item_per_node(self):
        network = SensorNetwork.from_items([5, 6, 7, 8], topology=line_links(4))
        assert network.num_nodes == 4
        assert [node.items for node in network.nodes()] == [(5,), (6,), (7,), (8,)]

    def test_from_items_by_topology_name(self):
        network = SensorNetwork.from_items(list(range(9)), topology="grid")
        assert network.num_nodes == 9

    def test_from_items_empty_rejected(self):
        with pytest.raises(EmptyNetworkError):
            SensorNetwork.from_items([], topology="line")

    def test_topology_smaller_than_items_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorNetwork.from_items([1, 2, 3], topology=line_links(2))

    def test_unknown_root_rejected(self):
        with pytest.raises(TopologyError):
            SensorNetwork(line_links(3), root=7)

    def test_root_flag_set(self):
        network = SensorNetwork.from_items([1, 2, 3], topology=line_links(3))
        assert network.root.is_root
        assert not network.node(1).is_root

    def test_ground_truth_accessors(self):
        items = [4, 9, 1, 7]
        network = SensorNetwork.from_items(items, topology=line_links(4))
        assert sorted(network.all_items()) == sorted(items)
        assert network.total_items() == 4
        assert network.max_item() == 9

    def test_assign_and_clear_items(self):
        network = SensorNetwork.from_items([1, 2, 3], topology=line_links(3))
        network.assign_items({0: [10, 11], 2: []})
        assert network.items_of(0) == [10, 11]
        assert network.items_of(2) == []
        assert network.items_of(1) == [2]
        network.clear_items()
        assert network.total_items() == 0

    def test_unknown_node_lookup_rejected(self):
        network = SensorNetwork.from_items([1], topology=line_links(1))
        with pytest.raises(ConfigurationError):
            network.node(5)


class TestTreeManagement:
    def test_default_tree_is_degree_bounded(self):
        network = SensorNetwork.from_items(list(range(20)), topology="single_hop")
        assert network.flat_tree.max_degree() <= 3

    def test_rebuild_tree_unbounded(self):
        network = SensorNetwork.from_items(
            list(range(20)), topology="single_hop", degree_bound=None
        )
        network.rebuild_tree()
        assert network.flat_tree.max_degree() == 19

    def test_rebuild_tree_keeps_the_bound(self):
        network = SensorNetwork.from_items(list(range(10)), topology="single_hop")
        original_bound, original = network.degree_bound, network.flat_tree
        rebuilt = network.rebuild_tree()
        assert network.degree_bound == original_bound
        assert rebuilt is network.flat_tree is not original
        assert rebuilt.to_lists() == original.to_lists()

    def test_star_tree_height(self):
        network = SensorNetwork.from_items(
            list(range(8)), topology=star_links(8), degree_bound=None
        )
        assert network.flat_tree.height == 1


class TestSend:
    def test_send_charges_both_ends(self):
        network = SensorNetwork.from_items([1, 2], topology=line_links(2))
        network.send(0, 1, "hello", 64, protocol="TEST")
        assert network.ledger.node_bits(0) == 64
        assert network.ledger.node_bits(1) == 64
        assert network.ledger.per_protocol_bits() == {"TEST": 64}

    def test_send_requires_graph_edge(self):
        network = SensorNetwork.from_items([1, 2, 3], topology=line_links(3))
        with pytest.raises(TopologyError):
            network.send(0, 2, "x", 8)

    def test_lossy_radio_inflates_charges(self):
        reliable = SensorNetwork.from_items([1, 2], topology=line_links(2))
        lossy = SensorNetwork.from_items(
            [1, 2], topology=line_links(2), radio=LossyRadio(loss_rate=0.6, seed=4)
        )
        for _ in range(30):
            reliable.send(0, 1, "x", 10)
            lossy.send(0, 1, "x", 10)
        assert lossy.ledger.node_bits(0) > reliable.ledger.node_bits(0)

    def test_reset_ledger(self):
        network = SensorNetwork.from_items([1, 2], topology=line_links(2))
        network.send(0, 1, "x", 10)
        network.reset_ledger()
        assert network.ledger.total_bits == 0

    def test_measure_helper(self):
        network = SensorNetwork.from_items([1, 2], topology=line_links(2))

        def probe(net):
            net.send(0, 1, "x", 12)
            return "done"

        result, snapshot = network.measure(probe)
        assert result == "done"
        assert snapshot.total_bits == 12

