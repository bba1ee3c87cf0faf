"""Tests for spanning-tree construction."""

import networkx as nx
import pytest

from repro.exceptions import TopologyError
from repro.network.spanning_tree import bfs_tree, bounded_degree_tree
from repro.network.topology import (
    grid_links,
    line_links,
    random_geometric_links,
    ring_links,
    single_hop_links,
    star_links,
)


class TestBfsTree:
    def test_spans_all_nodes(self):
        graph = grid_links(4)
        tree = bfs_tree(graph, root=0)
        assert set(tree.parent) == set(graph.node_ids())
        tree.validate(graph)

    def test_root_has_no_parent(self):
        tree = bfs_tree(grid_links(3), root=0)
        assert tree.parent[0] is None
        assert tree.depth[0] == 0

    def test_depth_is_graph_distance(self):
        graph = grid_links(4)
        tree = bfs_tree(graph, root=0)
        distances = nx.single_source_shortest_path_length(graph.to_networkx(), 0)
        assert tree.depth == distances

    def test_line_tree_height(self):
        tree = bfs_tree(line_links(10), root=0)
        assert tree.height == 9

    def test_unknown_root_rejected(self):
        with pytest.raises(TopologyError):
            bfs_tree(line_links(4), root=99)

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        with pytest.raises(TopologyError):
            bfs_tree(graph, root=0)

    def test_bottom_up_order_children_before_parents(self):
        tree = bfs_tree(grid_links(4), root=0)
        order = tree.nodes_bottom_up()
        position = {node: index for index, node in enumerate(order)}
        for node, parent in tree.parent.items():
            if parent is not None:
                assert position[node] < position[parent]

    def test_top_down_order_parents_before_children(self):
        tree = bfs_tree(grid_links(4), root=0)
        order = tree.nodes_top_down()
        position = {node: index for index, node in enumerate(order)}
        for node, parent in tree.parent.items():
            if parent is not None:
                assert position[parent] < position[node]

    def test_path_to_root_ends_at_root(self):
        tree = bfs_tree(grid_links(3), root=0)
        for node in tree.parent:
            assert tree.path_to_root(node)[-1] == 0

    def test_subtree_of_root_is_everything(self):
        tree = bfs_tree(grid_links(3), root=0)
        assert set(tree.subtree_nodes(0)) == set(tree.parent)

    def test_nonzero_root(self):
        tree = bfs_tree(grid_links(3), root=4)
        assert tree.root == 4
        assert tree.parent[4] is None


class TestBoundedDegreeTree:
    def test_still_a_spanning_tree(self):
        graph = single_hop_links(20)
        tree = bounded_degree_tree(graph, root=0, max_degree=3)
        tree.validate(graph)
        assert set(tree.parent) == set(graph.node_ids())

    def test_degree_reduced_on_clique(self):
        graph = single_hop_links(30)
        unbounded = bfs_tree(graph, root=0)
        bounded = bounded_degree_tree(graph, root=0, max_degree=3)
        assert unbounded.max_degree() == 29
        assert bounded.max_degree() <= 3

    def test_degree_bound_respected_on_grid(self):
        graph = grid_links(6)
        tree = bounded_degree_tree(graph, root=0, max_degree=3)
        assert tree.max_degree() <= 3

    def test_star_bound_is_best_effort(self):
        # The star admits no low-degree spanning tree: the construction must
        # still return a valid tree even though the bound cannot be met.
        graph = star_links(12)
        tree = bounded_degree_tree(graph, root=0, max_degree=3)
        tree.validate(graph)
        assert tree.max_degree() == 11

    def test_ring_unchanged(self):
        graph = ring_links(10)
        tree = bounded_degree_tree(graph, root=0, max_degree=3)
        assert tree.max_degree() <= 2 + 1

    def test_random_geometric(self):
        graph = random_geometric_links(60, seed=7)
        tree = bounded_degree_tree(graph, root=0, max_degree=4)
        tree.validate(graph)

    def test_rejects_degree_below_two(self):
        with pytest.raises(TopologyError):
            bounded_degree_tree(grid_links(3), root=0, max_degree=1)

    def test_validate_detects_foreign_edges(self):
        graph = grid_links(3)
        tree = bfs_tree(graph, root=0)
        tree.parent[8] = 0  # 8 is not adjacent to 0 in a 3x3 grid
        with pytest.raises(TopologyError):
            tree.validate(graph)

    def test_validate_detects_a_cycle_off_the_root(self):
        # Consistent parent pointers and child lists, but 1 and 2 hang from
        # each other: no depth assignment can be one below the parent.
        from repro.network.spanning_tree import SpanningTree

        tree = SpanningTree(
            root=0,
            parent={0: None, 1: 2, 2: 1},
            children={0: [], 1: [2], 2: [1]},
            depth={0: 0, 1: 1, 2: 2},
        )
        with pytest.raises(TopologyError):
            tree.validate(ring_links(3))
