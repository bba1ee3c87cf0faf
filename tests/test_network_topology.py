"""Tests for topology generators."""

import networkx as nx
import pytest

from repro.exceptions import TopologyError
from repro.network.topology import (
    TOPOLOGY_BUILDERS,
    build_links,
    grid_links,
    line_links,
    random_geometric_links,
    random_tree_links,
    ring_links,
    single_hop_links,
    star_links,
)


def degrees(links):
    return {node: len(links.neighbors(node)) for node in links.node_ids()}


class TestLineAndRing:
    def test_line_structure(self):
        links = line_links(5)
        assert links.num_nodes == 5
        assert links.num_edges == 4
        assert max(degrees(links).values()) == 2

    def test_single_node_line(self):
        assert line_links(1).num_nodes == 1

    def test_ring_has_no_leaves(self):
        assert set(degrees(ring_links(6)).values()) == {2}

    def test_small_ring_degenerates_to_line(self):
        assert ring_links(2).num_edges == 1


class TestStarAndClique:
    def test_star_centre_degree(self):
        links = star_links(10)
        assert max(degrees(links).values()) == 9
        assert links.node_ids() == list(range(10))

    def test_single_hop_is_complete(self):
        assert single_hop_links(6).num_edges == 15


class TestGrid:
    def test_square_grid(self):
        links = grid_links(4)
        assert links.num_nodes == 16
        assert nx.is_connected(links.to_networkx())

    def test_rectangular_grid(self):
        links = grid_links(2, 5)
        assert links.num_nodes == 10
        # corner nodes have degree 2
        assert degrees(links)[0] == 2

    def test_grid_node_labels_are_row_major(self):
        links = grid_links(3, 3)
        assert links.has(0, 1)
        assert links.has(0, 3)
        assert not links.has(0, 4)


class TestRandomTopologies:
    def test_random_geometric_is_connected(self):
        links = random_geometric_links(50, seed=3)
        assert nx.is_connected(links.to_networkx())
        assert links.num_nodes == 50

    def test_random_geometric_reproducible(self):
        a = random_geometric_links(30, seed=11)
        b = random_geometric_links(30, seed=11)
        assert [side.tolist() for side in a.edges()] == [side.tolist() for side in b.edges()]

    def test_random_geometric_single_node(self):
        assert random_geometric_links(1).num_nodes == 1

    def test_random_geometric_rejects_bad_radius(self):
        with pytest.raises(TopologyError):
            random_geometric_links(10, radius=-1.0)

    def test_random_tree_is_tree(self):
        assert nx.is_tree(random_tree_links(40, seed=5).to_networkx())


class TestBuildTopology:
    @pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
    def test_every_registered_builder_yields_connected_graph(self, name):
        assert nx.is_connected(build_links(name, 20, seed=1).to_networkx())

    def test_unknown_name_rejected(self):
        with pytest.raises(TopologyError):
            build_links("moebius", 10)

    def test_zero_nodes_rejected(self):
        with pytest.raises(Exception):
            line_links(0)
