"""Tests for spanning-tree construction."""

import networkx as nx
import pytest

from repro.exceptions import ConfigurationError, TopologyError
from repro.network import FlatTree, SensorNetwork
from repro.network.spanning_tree import SpanningTree, build_tree
from repro.network.topology import (
    grid_links,
    line_links,
    random_geometric_links,
    ring_links,
    single_hop_links,
    star_links,
)


def depth_of(flat):
    return dict(zip(flat.node_ids, flat.depth.tolist()))


class TestBfsTree:
    def test_spans_all_nodes(self, spanning):
        graph = grid_links(4)
        tree = build_tree(graph, root=0)
        assert set(tree.node_ids) == set(graph.node_ids())
        spanning(tree, graph)

    def test_root_has_no_parent(self):
        tree = build_tree(grid_links(3), root=0)
        assert tree.parent_map()[0] is None
        assert depth_of(tree)[0] == 0

    def test_depth_is_graph_distance(self):
        graph = grid_links(4)
        tree = build_tree(graph, root=0)
        distances = nx.single_source_shortest_path_length(graph.to_networkx(), 0)
        assert depth_of(tree) == distances

    def test_line_tree_height(self):
        tree = build_tree(line_links(10), root=0)
        assert tree.height == 9

    def test_unknown_root_rejected(self):
        with pytest.raises(TopologyError):
            build_tree(line_links(4), root=99)

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        with pytest.raises(TopologyError):
            build_tree(graph, root=0)

    def test_bottom_up_order_children_before_parents(self):
        tree = build_tree(grid_links(4), root=0)
        order = list(tree.nodes_bottom_up())
        position = {node: index for index, node in enumerate(order)}
        for node, parent in tree.parent_map().items():
            if parent is not None:
                assert position[node] < position[parent]

    def test_top_down_order_parents_before_children(self):
        tree = build_tree(grid_links(4), root=0)
        order = tree.nodes_top_down()
        position = {node: index for index, node in enumerate(order)}
        for node, parent in tree.parent_map().items():
            if parent is not None:
                assert position[parent] < position[node]

    def test_nonzero_root(self):
        tree = build_tree(grid_links(3), root=4)
        assert tree.root_id == 4
        assert tree.parent_map()[4] is None


class TestBoundedDegreeTree:
    def test_still_a_spanning_tree(self, spanning):
        graph = single_hop_links(20)
        tree = build_tree(graph, root=0, degree_bound=3)
        spanning(tree, graph)
        assert set(tree.node_ids) == set(graph.node_ids())

    def test_degree_reduced_on_clique(self):
        graph = single_hop_links(30)
        unbounded = build_tree(graph, root=0)
        bounded = build_tree(graph, root=0, degree_bound=3)
        assert unbounded.max_degree() == 29
        assert bounded.max_degree() <= 3

    def test_degree_bound_respected_on_grid(self):
        graph = grid_links(6)
        tree = build_tree(graph, root=0, degree_bound=3)
        assert tree.max_degree() <= 3

    def test_star_bound_is_best_effort(self, spanning):
        # The star admits no low-degree spanning tree: the construction must
        # still return a valid tree even though the bound cannot be met.
        graph = star_links(12)
        tree = build_tree(graph, root=0, degree_bound=3)
        spanning(tree, graph)
        assert tree.max_degree() == 11

    def test_ring_unchanged(self):
        graph = ring_links(10)
        tree = build_tree(graph, root=0, degree_bound=3)
        assert tree.max_degree() <= 2 + 1

    def test_random_geometric(self, spanning):
        graph = random_geometric_links(60, seed=7)
        tree = build_tree(graph, root=0, degree_bound=4)
        spanning(tree, graph)

    def test_rejects_degree_below_two(self):
        for degree_bound, error, message in (
            (1, TopologyError, "degree_bound must be at least 2"),
            (0, ConfigurationError, "degree_bound must be positive"),
            (True, ConfigurationError, "degree_bound must be an integer"),
        ):
            with pytest.raises(error, match=message):
                build_tree(grid_links(3), root=0, degree_bound=degree_bound)
            with pytest.raises(error, match=message):
                SensorNetwork.from_items(
                    [1] * 9, topology="grid", degree_bound=degree_bound
                )

    def test_spanning_check_detects_foreign_edges(self, spanning):
        graph = grid_links(3)
        parent = build_tree(graph, root=0).parent_map()
        parent[8] = 0  # 8 is not adjacent to 0 in a 3x3 grid
        with pytest.raises(AssertionError, match="not an alive link"):
            spanning(FlatTree.from_parents(0, parent), graph)

    def test_invariants_detect_a_cycle_off_the_root(self):
        # Consistent parent pointers and child lists, but 1 and 2 hang from
        # each other: no depth assignment can be one below the parent.
        tree = SpanningTree(
            root=0,
            parent={0: None, 1: 2, 2: 1},
            children={0: [], 1: [2], 2: [1]},
            depth={0: 0, 1: 1, 2: 2},
        )
        with pytest.raises(TopologyError):
            tree.check_invariants()
        with pytest.raises(TopologyError):
            FlatTree.from_parents(0, tree.parent)
