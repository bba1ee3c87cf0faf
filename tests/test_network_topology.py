"""Tests for topology generators."""

import networkx as nx
import pytest

from repro.exceptions import TopologyError
from repro.network.topology import (
    TOPOLOGY_BUILDERS,
    build_topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
    random_tree_topology,
    ring_topology,
    single_hop_topology,
    star_topology,
)


class TestLineAndRing:
    def test_line_structure(self):
        graph = line_topology(5)
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 4
        assert max(dict(graph.degree()).values()) == 2

    def test_single_node_line(self):
        assert line_topology(1).number_of_nodes() == 1

    def test_ring_has_no_leaves(self):
        graph = ring_topology(6)
        assert all(degree == 2 for _, degree in graph.degree())

    def test_small_ring_degenerates_to_line(self):
        assert ring_topology(2).number_of_edges() == 1


class TestStarAndClique:
    def test_star_centre_degree(self):
        graph = star_topology(10)
        degrees = dict(graph.degree())
        assert max(degrees.values()) == 9
        assert sorted(graph.nodes()) == list(range(10))

    def test_single_hop_is_complete(self):
        graph = single_hop_topology(6)
        assert graph.number_of_edges() == 15


class TestGrid:
    def test_square_grid(self):
        graph = grid_topology(4)
        assert graph.number_of_nodes() == 16
        assert nx.is_connected(graph)

    def test_rectangular_grid(self):
        graph = grid_topology(2, 5)
        assert graph.number_of_nodes() == 10
        # corner nodes have degree 2
        assert dict(graph.degree())[0] == 2

    def test_grid_node_labels_are_row_major(self):
        graph = grid_topology(3, 3)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(0, 3)
        assert not graph.has_edge(0, 4)


class TestRandomTopologies:
    def test_random_geometric_is_connected(self):
        graph = random_geometric_topology(50, seed=3)
        assert nx.is_connected(graph)
        assert graph.number_of_nodes() == 50

    def test_random_geometric_reproducible(self):
        a = random_geometric_topology(30, seed=11)
        b = random_geometric_topology(30, seed=11)
        assert set(a.edges()) == set(b.edges())

    def test_random_geometric_single_node(self):
        assert random_geometric_topology(1).number_of_nodes() == 1

    def test_random_geometric_rejects_bad_radius(self):
        with pytest.raises(TopologyError):
            random_geometric_topology(10, radius=-1.0)

    def test_random_tree_is_tree(self):
        graph = random_tree_topology(40, seed=5)
        assert nx.is_tree(graph)


class TestBuildTopology:
    @pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
    def test_every_registered_builder_yields_connected_graph(self, name):
        graph = build_topology(name, 20, seed=1)
        assert nx.is_connected(graph)

    def test_unknown_name_rejected(self):
        with pytest.raises(TopologyError):
            build_topology("moebius", 10)

    def test_zero_nodes_rejected(self):
        with pytest.raises(Exception):
            line_topology(0)
