"""One spanning tree: ``network.flat_tree`` owns it, ``network.tree`` is a view.

* the array constructor builds exactly the arrays the retired dictionary
  constructor built, on every named topology and on random parent maps with
  sparse and negative ids;
* the array paths of a faulted, vectorized stream never build the view;
* the view refuses mutation.
"""

from __future__ import annotations

from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    LinkDrop,
    RootCrash,
    TreeRepair,
    run_faulty_stream,
)
from repro.network import FlatTree, SensorNetwork, SpanningTree, tree_from_parents
from repro.network.spanning_tree import build_tree, spanning_parents
from repro.network.topology import TOPOLOGY_BUILDERS, build_links
from repro.streaming import CountQuery, engine_for
from repro.workloads import DriftStream
from repro.workloads.faults import storm_under_churn_script


# --------------------------------------------------------------------------- #
# The oracle: the dictionary tree and the dictionary → array constructor the
# arrays replaced, kept verbatim (bar the final install, which now returns
# what ``FlatTree.to_lists`` reports).
# --------------------------------------------------------------------------- #
def dict_tree_from_parents(root, parent):
    children = {node: [] for node in parent}
    for node, par in parent.items():
        if par is not None:
            children[par].append(node)
    for kids in children.values():
        kids.sort()
    depth = {root: 0}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for child in children[current]:
            depth[child] = depth[current] + 1
            queue.append(child)
    assert len(depth) == len(parent)
    return SpanningTree(root=root, parent=parent, children=children, depth=depth)


def dict_constructor_lists(tree):
    order = tree.nodes_top_down()
    index = {node: position for position, node in enumerate(order)}
    num_nodes = len(order)
    parent = [0] * num_nodes
    depth = [0] * num_nodes
    child_start = [0] * num_nodes
    child_end = [0] * num_nodes
    child_index: list[int] = []
    for position, node in enumerate(order):
        depth[position] = tree.depth[node]
        node_parent = tree.parent[node]
        parent[position] = -1 if node_parent is None else index[node_parent]
        child_start[position] = len(child_index)
        child_index.extend(index[child] for child in tree.children[node])
        child_end[position] = len(child_index)

    height = depth[-1] if num_nodes else 0
    level_spans: list[tuple[int, int]] = []
    start = 0
    for level in range(height + 1):
        end = start
        while end < num_nodes and depth[end] == level:
            end += 1
        level_spans.append((start, end))
        start = end

    bottom_up = [index[node] for node in tree.nodes_bottom_up()]
    return {
        "node_ids": order,
        "level_spans": level_spans,
        "parent": parent,
        "depth": depth,
        "child_start": child_start,
        "child_end": child_end,
        "child_index": child_index,
        "bottom_up": bottom_up,
    }


def oracle(root, parent):
    return dict_constructor_lists(dict_tree_from_parents(root, dict(parent)))


@pytest.mark.parametrize("degree_bound", [None, 3])
@pytest.mark.parametrize("topology", sorted(TOPOLOGY_BUILDERS))
def test_the_array_constructor_is_the_dict_constructor(topology, degree_bound):
    links = build_links(topology, 64, seed=5)
    node_ids, parent_ids = spanning_parents(links, 0, degree_bound)
    parent = dict(zip(node_ids.tolist(), [None] + parent_ids[1:].tolist()))
    expected = oracle(0, parent)
    assert build_tree(links, 0, degree_bound).to_lists() == expected
    network = SensorNetwork(links, degree_bound=degree_bound)
    assert network.flat_tree.to_lists() == expected
    view = network.tree
    assert dict_constructor_lists(view) == expected
    assert FlatTree.from_spanning_tree(view).to_lists() == expected


def test_sparse_and_negative_ids_build_through_the_same_constructor():
    graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 5))
    graph = nx.relabel_nodes(graph, {node: 10 * node + 3 for node in graph})
    network = SensorNetwork(graph, root=63)
    parent = network.flat_tree.parent_map()
    assert network.flat_tree.to_lists() == oracle(63, parent)
    assert network.tree.parent == parent
    assert FlatTree.from_spanning_tree(network.tree).to_lists() == oracle(63, parent)
    # Node ids must be non-negative, tree ids need not: the same tree,
    # mirrored to negative ids, builds through the same constructor.
    mirrored = {-node: None if up is None else -up for node, up in parent.items()}
    assert FlatTree.from_parents(-63, mirrored).to_lists() == oracle(-63, mirrored)


@st.composite
def parent_maps(draw):
    """A random rooted tree over 1–60 distinct ids in [-200, 200], the
    parent map in a random key order."""
    ids = draw(st.lists(st.integers(-200, 200), min_size=1, max_size=60, unique=True))
    parent = {ids[0]: None}
    for position in range(1, len(ids)):
        parent[ids[position]] = ids[draw(st.integers(0, position - 1))]
    keys = draw(st.permutations(ids))
    return ids[0], {node: parent[node] for node in keys}


@given(case=parent_maps())
@settings(max_examples=200, deadline=None)
def test_random_parent_maps_build_the_dict_constructor_arrays(case):
    root, parent = case
    expected = oracle(root, parent)
    assert FlatTree.from_parents(root, parent).to_lists() == expected
    node_ids = list(parent)
    parent_ids = [-1 if par is None else par for par in parent.values()]
    assert FlatTree.from_arrays(parent_ids, root, node_ids=node_ids).to_lists() == expected
    tree = tree_from_parents(root, parent)
    reference = dict_tree_from_parents(root, dict(parent))
    assert (tree.parent, tree.children, tree.depth) == (
        reference.parent,
        reference.children,
        reference.depth,
    )


# --------------------------------------------------------------------------- #
# No array path builds the view
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("execution", ["vectorized", "batched"])
def test_the_array_paths_never_build_the_tree_view(monkeypatch, execution):
    """Heartbeat detection, a crash storm, rejoins, a dropped tree edge and
    a root crash on a dense field, off the per-edge path: the view is never
    built."""
    n, epochs = 400, 24
    network = SensorNetwork.from_items(
        [0] * n,
        topology="random_geometric",
        seed=3,
        degree_bound=None,
        execution=execution,
    )
    network.clear_items()
    # A tree edge with a subtree below it, dropped before anything else
    # changes the tree (churn starts at epoch 1 too).
    flat = network.flat_tree
    child = next(
        position
        for position in flat.bottom_up.tolist()[::-1]
        if flat.depth[position] > 2 and flat.child_end[position] > flat.child_start[position]
    )
    tree_edge = (flat.node_ids[child], flat.node_ids[flat.parent[child]])

    def refuse(*args, **kwargs):
        raise AssertionError("an array path built the tree view")

    monkeypatch.setattr(SpanningTree, "from_flat", refuse)
    engine = engine_for(network, epsilon=0.1)
    engine.register("count", CountQuery())
    script = (
        storm_under_churn_script(
            network.node_ids(), epochs, storm_epoch=4, storm_fraction=0.1,
            rejoin_epoch=10, churn_rate=0.01, seed=3,
        )
        .merge(FaultScript({1: [LinkDrop(*tree_edge)], 8: [RootCrash()]}))
    )
    faults = FaultEngine(network, script=script, repair=TreeRepair(), seed=3,
                         detector=HeartbeatDetector(period=1))
    trace = run_faulty_stream(
        engine, DriftStream(n, max_value=1 << 16, seed=3), faults, epochs=epochs
    )
    rows = list(trace.to_dicts())
    assert rows[1]["link_drops"] == 1 and rows[1]["reparented"] > 0
    assert sum(row["crashes"] for row in rows) > 0
    assert sum(row["rejoins"] for row in rows) > 0
    assert [row["new_root"] for row in rows if row["new_root"] is not None][0] == 399
    assert network.flat_tree is not flat


# --------------------------------------------------------------------------- #
# The view is read-only
# --------------------------------------------------------------------------- #
def test_network_tree_view_is_frozen():
    network = SensorNetwork.from_items([1] * 9, topology="grid")
    tree = network.tree
    root = network.root_id
    for mutate in (
        lambda: tree.parent.__setitem__(4, 0),
        lambda: tree.parent.__delitem__(4),
        lambda: tree.parent.clear(),
        lambda: tree.depth.__setitem__(4, 9),
        lambda: tree.depth.pop(4),
        lambda: tree.children.__setitem__(root, []),
        lambda: tree.children[root].clear(),
        lambda: tree.children[root].append(8),
        lambda: tree.children[root].remove(tree.children[root][0]),
        lambda: tree.children[root].__setitem__(0, 8),
        lambda: tree.children[root].sort(reverse=True),
    ):
        with pytest.raises((TypeError, AttributeError)):
            mutate()
    with pytest.raises(AttributeError):
        network.tree = tree
    assert tree.parent == network.flat_tree.parent_map()
    assert network.tree is tree  # built once, kept until the tree changes
    network.rebuild_tree(degree_bound=None)
    assert network.tree is not tree
    with pytest.raises(ConfigurationError):
        network.set_tree(tree)  # the view is not a tree to install
