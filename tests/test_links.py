"""The link table: one owner of link state, generated straight into arrays.

* the grid-bucketed random-geometric generator finds exactly the edges
  ``networkx.random_geometric_graph`` finds from the same seeded positions,
  and the Prüfer decode the tree ``networkx.from_prufer_sequence`` builds;
* each unordered pair is one link: a converted ``DiGraph`` or
  ``MultiGraph`` keeps it once, and the constructor refuses a repeat;
* the frontier BFS picks the parents a readable FIFO walk over ascending
  neighbours picks, after drops too;
* ``drop_link`` / ``restore_link`` are the only mutation, round-trip
  exactly, and the ``network.graph`` view is read-only;
* no repair, election or epoch path builds the networkx view;
* a rebuild's flood order depends on the current links only, not on the
  history of drops and restores.
"""

from __future__ import annotations

import math
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.randomness import make_rng
from repro.exceptions import TopologyError
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    RootCrash,
    TreeRepair,
    run_faulty_stream,
)
from repro.network import LinkTable, LossyRadio, SensorNetwork
from repro.network.spanning_tree import build_tree, spanning_parents
from repro.network.topology import (
    TOPOLOGY_BUILDERS,
    build_links,
    random_geometric_links,
    random_tree_links,
)
from repro.streaming import ContinuousQueryEngine, CountQuery
from repro.workloads import DriftStream
from repro.workloads.faults import link_storm_script, storm_under_churn_script


def networkx_random_geometric(num_nodes: int, seed: int) -> nx.Graph:
    """The networkx generator under the same radius-growth retry loop."""
    rng = make_rng(seed)
    radius = math.sqrt(2.0 * math.log(num_nodes) / num_nodes)
    while True:
        graph = nx.random_geometric_graph(num_nodes, radius, seed=rng.getrandbits(32))
        if nx.is_connected(graph):
            return graph
        radius *= 1.1


def edge_set(links: LinkTable) -> set[tuple[int, int]]:
    low, high = links.edges()
    return set(zip(low.tolist(), high.tolist()))


# --------------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 3, 7, 11])
@pytest.mark.parametrize("num_nodes", [2, 3, 10, 64, 257, 1024, 2000])
def test_random_geometric_links_are_the_networkx_edges(num_nodes, seed):
    expected = {
        tuple(sorted(edge))
        for edge in networkx_random_geometric(num_nodes, seed).edges()
    }
    assert edge_set(random_geometric_links(num_nodes, seed=seed)) == expected


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
@pytest.mark.parametrize("num_nodes", [2, 3, 10, 64, 257, 1024, 2000])
def test_random_tree_links_are_the_networkx_prufer_tree(num_nodes, seed):
    rng = make_rng(seed)
    prufer = [rng.randrange(num_nodes) for _ in range(num_nodes - 2)]
    expected = {
        tuple(sorted(edge)) for edge in nx.from_prufer_sequence(prufer).edges()
    }
    assert edge_set(random_tree_links(num_nodes, seed=seed)) == expected


@pytest.mark.slow
def test_the_20000_node_field_is_the_networkx_field():
    links = random_geometric_links(20_000, seed=0)
    assert links.num_edges == 605_225
    expected = {
        tuple(sorted(edge)) for edge in networkx_random_geometric(20_000, 0).edges()
    }
    assert edge_set(links) == expected


@pytest.mark.parametrize(
    "name", ["line", "ring", "star", "single_hop", "grid", "random_tree"]
)
def test_every_generator_emits_sorted_rows_and_edges(name):
    links = build_links(name, 30, seed=2)
    for node in links.node_ids():
        row = links.neighbors(node)
        assert row == sorted(set(row)) and node not in row
    low, high = links.edges()
    pairs = list(zip(low.tolist(), high.tolist()))
    assert pairs == sorted(pairs) and all(u < v for u, v in pairs)
    assert links.num_edges == len(pairs) == links.to_networkx().number_of_edges()


def _has_rows_is_has(links: LinkTable) -> None:
    """``has_rows`` over every ordered pair equals ``has`` pair by pair."""
    n = links.num_nodes
    u, v = np.divmod(np.arange(n * n, dtype=np.int64), max(n, 1))
    expected = [links.has(a, b) for a, b in zip(u.tolist(), v.tolist())]
    assert links.has_rows(u, v).tolist() == expected


@pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
def test_has_rows_is_has_after_drops_and_restores(name):
    links = build_links(name, 24, seed=4)
    _has_rows_is_has(links)
    low, high = links.edges()
    dropped = list(zip(low.tolist(), high.tolist()))[::3]
    for u, v in dropped:
        links.drop(u, v)
    _has_rows_is_has(links)
    for u, v in dropped[::2]:
        links.restore(u, v)
    _has_rows_is_has(links)


def test_has_rows_on_one_node():
    links = build_links("line", 1)
    _has_rows_is_has(links)
    assert links.has_rows(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)).shape == (0,)


# --------------------------------------------------------------------------- #
# The frontier BFS against a FIFO walk
# --------------------------------------------------------------------------- #
def fifo_parents(links: LinkTable, root: int, members=None) -> list[tuple]:
    """The readable reference: a FIFO queue over ascending alive neighbours."""
    parent = {root: None}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for neighbor in links.neighbors(current):
            if neighbor not in parent and (members is None or members[neighbor]):
                parent[neighbor] = current
                queue.append(neighbor)
    return list(parent.items())


@st.composite
def damaged_graphs(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=30))
    # A random spanning tree keeps the field connected before the drops.
    edges = {
        (draw(st.integers(0, node - 1)), node) for node in range(1, num_nodes)
    }
    if num_nodes > 1:
        pair = st.tuples(
            st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
        ).filter(lambda p: p[0] != p[1])
        edges |= {tuple(sorted(p)) for p in draw(st.lists(pair, max_size=60))}
    edges = sorted(edges)
    dropped = draw(st.sets(st.sampled_from(edges), max_size=6)) if edges else set()
    members = draw(st.lists(st.booleans(), min_size=num_nodes, max_size=num_nodes))
    root = draw(st.integers(0, num_nodes - 1))
    return num_nodes, edges, sorted(dropped), members, root


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=damaged_graphs())
def test_frontier_bfs_is_the_fifo_walk(case):
    num_nodes, edges, dropped, members, root = case
    low, high = zip(*edges) if edges else ((), ())
    links = LinkTable(num_nodes, list(low), list(high))
    for u, v in dropped:
        links.drop(u, v)
    order, parents, levels = links.bfs(root)
    got = [(root, None)] + list(zip(order[1:].tolist(), parents[1:].tolist()))
    assert got == fifo_parents(links, root)
    assert sum(levels) == order.size
    if order.size == num_nodes:
        assert discovered(links, root) == fifo_parents(links, root)
        assert build_tree(links, root).parent_map() == dict(fifo_parents(links, root))
    else:
        with pytest.raises(TopologyError):
            build_tree(links, root)
    mask = np.array(members, dtype=bool)
    mask[root] = True
    assert discovered(links, root, mask) == fifo_parents(links, root, mask)
    tree = build_tree(links, root, members=mask)
    assert tree.parent_map() == dict(fifo_parents(links, root, mask))


def discovered(links: LinkTable, root: int, members=None) -> list[tuple]:
    """``spanning_parents`` as ``(node, parent)`` pairs in discovery order."""
    node_ids, parent_ids = spanning_parents(links, root, members=members)
    return list(zip(node_ids.tolist(), [None] + parent_ids[1:].tolist()))


@pytest.mark.parametrize(
    "graph",
    [nx.DiGraph([(0, 1), (1, 0), (1, 2)]), nx.MultiGraph([(0, 1), (1, 0), (1, 2), (1, 1)])],
    ids=["digraph", "multigraph"],
)
def test_a_converted_graph_keeps_each_pair_once(graph):
    links = LinkTable.from_networkx(graph)
    assert links.num_edges == 2 and links.neighbors(1) == [0, 2]
    network = SensorNetwork(graph)
    network.drop_link(0, 1)
    assert not network.links.has(0, 1) and not network.links.has(1, 0)
    assert network.links.neighbors(1) == [2]


@pytest.mark.parametrize(
    "low, high, message",
    [
        ([0, 1, 0], [1, 2, 1], "linked more than once"),
        ([0, 1, 1], [1, 2, 0], "linked more than once"),
        ([0, 1], [1, 1], "linked to itself"),
    ],
    ids=["repeat", "reversed", "self-loop"],
)
def test_the_constructor_refuses_a_repeated_pair_or_a_self_loop(low, high, message):
    with pytest.raises(TopologyError, match=message):
        LinkTable(3, low, high)


def test_sparse_ids_answer_in_their_own_ids():
    graph = nx.relabel_nodes(nx.cycle_graph(5), {node: 10 * node + 3 for node in range(5)})
    links = LinkTable.from_networkx(graph)
    assert links.node_ids() == [3, 13, 23, 33, 43] and not links.dense
    assert links.neighbors(3) == [13, 43]
    assert links.has(43, 3) and not links.has(3, 23) and not links.has(4, 3)
    assert edge_set(links) == {tuple(sorted(edge)) for edge in graph.edges()}
    tree = build_tree(links, 23)
    assert tree.parent_map() == {23: None, 13: 23, 33: 23, 3: 13, 43: 33}


# --------------------------------------------------------------------------- #
# The owner API and the read-only view
# --------------------------------------------------------------------------- #
def test_drop_and_restore_round_trip():
    network = SensorNetwork.from_items([1] * 16, topology="grid")
    links = network.links
    before = (links.neighbors(5), edge_set(links), set(network.graph.edges()))
    network.drop_link(6, 5)
    assert links.dropped == {(5, 6)}
    assert 6 not in links.neighbors(5) and 5 not in links.neighbors(6)
    assert not links.has(5, 6) and (5, 6) not in edge_set(links)
    assert not network.graph.has_edge(5, 6)
    assert links.num_edges == len(before[1]) - 1
    network.restore_link(5, 6)
    assert links.dropped == set()
    assert (links.neighbors(5), edge_set(links), set(network.graph.edges())) == before


def test_the_owner_refuses_what_is_not_a_change():
    network = SensorNetwork.from_items([1] * 9, topology="grid")
    with pytest.raises(TopologyError):
        network.drop_link(0, 4)  # not a link of the 3x3 grid
    with pytest.raises(TopologyError):
        network.restore_link(0, 1)  # up already
    network.drop_link(0, 1)
    with pytest.raises(TopologyError):
        network.drop_link(1, 0)  # down already


def test_the_graph_view_is_read_only():
    network = SensorNetwork.from_items([1] * 9, topology="grid")
    with pytest.raises(nx.NetworkXError):
        network.graph.remove_edge(0, 1)
    with pytest.raises(nx.NetworkXError):
        network.graph.add_edge(0, 4)
    with pytest.raises(AttributeError):
        network.graph = nx.Graph()
    assert network.links.has(0, 1) and not network.links.has(0, 4)


def test_no_fault_or_epoch_path_builds_the_networkx_view(monkeypatch):
    """A storm + link storm + two root crashes on the column sweep, watched:
    the view is never built, so no hot path reads it."""
    built = []
    original = LinkTable.to_networkx

    def recording(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(LinkTable, "to_networkx", recording)
    n, epochs = 400, 24
    network = SensorNetwork.from_items(
        [0] * n,
        topology="random_geometric",
        seed=3,
        degree_bound=None,
    )
    network.clear_items()
    engine = ContinuousQueryEngine(network, epsilon=0.1)
    engine.register("count", CountQuery())
    script = (
        storm_under_churn_script(
            network.node_ids(), epochs, storm_epoch=4, storm_fraction=0.1,
            rejoin_epoch=10, churn_rate=0.01, seed=3,
        )
        .merge(link_storm_script(network.links, epoch=6, fraction=0.3, seed=3,
                                 restore_epoch=12))
        .merge(FaultScript({8: [RootCrash()], 18: [RootCrash()]}))
    )
    faults = FaultEngine(network, script=script, repair=TreeRepair(), seed=3,
                         detector=HeartbeatDetector(period=1))
    trace = run_faulty_stream(
        engine, DriftStream(n, max_value=1 << 16, seed=3), faults, epochs=epochs
    )
    rows = list(trace.to_dicts())
    assert sum(row["link_drops"] for row in rows) > 0
    assert [row["new_root"] for row in rows if row["new_root"] is not None] == [399, 398]
    assert built == []


# --------------------------------------------------------------------------- #
# The rebuild's flood order
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("execution", ["per-edge", "batched"])
def test_a_rebuild_charges_what_the_links_are_not_their_history(execution):
    """The flood order picks the parents, and so who pays for the acks and
    their retries; a link that was dropped and restored must not move to the
    end of it."""

    def rebuilt(history: bool):
        network = SensorNetwork.from_items(
            [1] * 25,
            topology="grid",
            radio=LossyRadio(0.3, seed=5),
            execution=execution,
        )
        if history:
            # Vertical grid links: a networkx graph re-appends each one at
            # the end of both rows, which moved it in the old flood order.
            for u, v in ((0, 5), (6, 11), (12, 17)):
                network.drop_link(u, v)
                network.restore_link(u, v)
        network.kill_node(7)
        result = TreeRepair(strategy="rebuild").repair(network)
        assert result.rebuilt
        return network.ledger.snapshot(), network.flat_tree.parent_map()

    assert rebuilt(history=True) == rebuilt(history=False)
