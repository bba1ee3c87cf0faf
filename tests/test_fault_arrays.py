"""The array fault-epoch paths against their references, layer by layer.

A fault epoch runs three array implementations, each beside a reference that
states the same thing one message at a time.  Whole runs of every path are
held to the per-edge reference by ``tests/test_oracle.py``; this file keeps
the contracts of the layers underneath:

* the root election builds its link sequence as one ``(k, 2)`` array
  (``RootElection._plan_arrays``) — it must be the tuple-list builder's
  plan (``_plan_reference``) link for link, and be the builder a dense
  network actually runs;
* the engine's column sweep charges a sweep's levels in one ``send_batch``
  on perfect links: one call per sweep, the same links as one call per
  level.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import RootElection, TreeRepair
from repro.network import SensorNetwork
from repro.network.radio import ReliableRadio
from repro.network.topology import build_links
from repro.streaming import ContinuousQueryEngine, CountQuery, PredicateCountQuery

_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class PerLevelRadio(ReliableRadio):
    """Perfect links that are not *the* perfect-link class: every fast path
    keyed on ``type(radio) is ReliableRadio`` steps aside, so each level of a
    sweep is sent and charged on its own."""


@dataclass(frozen=True)
class Field:
    """One drawn field and what goes wrong on it."""

    topology: str
    num_nodes: int
    seed: int
    degree_bound: int | None
    crashed: frozenset
    dropped: frozenset
    #: Picks tree edges to cut with ``drop_link`` (no fault event).
    cut_children: frozenset
    detach_highest: bool

    def network(self, execution: str) -> SensorNetwork:
        # Each network owns its link table: link drops mutate it.
        links = build_links(self.topology, self.num_nodes, seed=self.seed)
        return SensorNetwork.from_items(
            [1] * links.num_nodes,
            topology=links,
            degree_bound=self.degree_bound,
            execution=execution,
        )

    def damage(self, network: SensorNetwork) -> None:
        """Crash nodes and cut links, tree edges included, without repairing."""
        for node in sorted(self.crashed):
            network.kill_node(node)
        for u, v in sorted(self.dropped):
            if network.links.has(u, v):
                network.drop_link(u, v)
        parent_of = network.flat_tree.parent_map()
        for child in sorted(self.cut_children):
            parent = parent_of.get(child)
            if parent is not None and network.links.has(child, parent):
                network.drop_link(child, parent)


@st.composite
def fields(draw):
    topology = draw(st.sampled_from(["grid", "random_geometric", "ring", "random_tree"]))
    num_nodes = (
        draw(st.sampled_from([9, 16, 25]))
        if topology == "grid"
        else draw(st.integers(min_value=6, max_value=28))
    )
    seed = draw(st.integers(min_value=0, max_value=7))
    links = build_links(topology, num_nodes, seed=seed)
    nodes = links.node_ids()
    low, high = links.edges()
    edges = list(zip(low.tolist(), high.tolist()))
    others = st.sampled_from(nodes[1:])
    return Field(
        topology=topology,
        num_nodes=num_nodes,
        seed=seed,
        degree_bound=draw(st.sampled_from([None, 3])),
        crashed=frozenset(draw(st.sets(others, max_size=len(nodes) // 3))),
        dropped=frozenset(draw(st.sets(st.sampled_from(edges), max_size=len(edges) // 3))),
        cut_children=frozenset(draw(st.sets(others, max_size=3))),
        detach_highest=draw(st.booleans()),
    )


# --------------------------------------------------------------------------- #
# Election: array builder vs the reference list builder
# --------------------------------------------------------------------------- #
def detach_the_highest_node(network: SensorNetwork) -> None:
    """Leave the highest id alive and graph-connected but *outside* the tree:
    isolate it, let a repair drop it, then give its links back unrepaired.
    It is the next election's winner — a survivor with no old tree around it."""
    highest = network.node_ids()[-1]
    neighbors = list(network.links.neighbors(highest))
    for neighbor in neighbors:
        network.drop_link(highest, neighbor)
    TreeRepair().repair(network)
    for neighbor in neighbors:
        network.restore_link(highest, neighbor)


@_settings
@given(field=fields())
def test_array_plan_is_the_reference_plan_link_for_link(field):
    network = field.network("batched")
    if field.detach_highest:
        detach_the_highest_node(network)
    field.damage(network)
    network.kill_node(network.root_id, allow_root=True)
    winner = network.alive_node_ids()[-1]
    election = RootElection()
    reference = election._plan_reference(network, winner)
    arrays = election._plan_arrays(network, winner)
    assert [tuple(link) for link in arrays.links.tolist()] == reference.links
    assert arrays.sizes.tolist() == reference.sizes
    for name in (
        "participants",
        "fragments",
        "convergecast_rounds",
        "flood_rounds",
        "reversed_path",
        "winner_fragment",
    ):
        assert getattr(arrays, name) == getattr(reference, name), name
    if field.detach_highest and winner == network.node_ids()[-1]:
        assert reference.winner_fragment == [winner]  # no old tree around it


def test_array_election_is_what_a_dense_numpy_network_runs(monkeypatch):
    """The differential above is only worth something if the array builder is
    the one in use — and the list builder where it must be."""
    calls = []

    def recording(name):
        original = getattr(RootElection, name)

        def builder(self, network, winner):
            calls.append(name)
            return original(self, network, winner)

        return builder

    for name in ("_plan_arrays", "_plan_reference"):
        monkeypatch.setattr(RootElection, name, recording(name))
    for execution, expected in (
        ("batched", "_plan_arrays"),
        ("per-edge", "_plan_reference"),
    ):
        network = SensorNetwork.from_items([1] * 9, topology="grid", execution=execution)
        network.kill_node(0, allow_root=True)
        RootElection().elect(network)
        assert calls.pop() == expected
    # Ids that are not 0..n-1 have no alive mask: the reference, silently.
    graph = build_links("ring", 8).to_networkx()
    sparse = SensorNetwork(
        nx.relabel_nodes(graph, {node: 10 * node for node in graph}), root=0
    )
    sparse.kill_node(0, allow_root=True)
    RootElection().elect(sparse)
    assert calls.pop() == "_plan_reference"


# --------------------------------------------------------------------------- #
# Stream sweep: one send_batch per sweep on perfect links
# --------------------------------------------------------------------------- #
def stream_network(radio):
    graph = build_links("grid", 36)
    network = SensorNetwork(graph, radio=radio, degree_bound=3)
    engine = ContinuousQueryEngine(network, epsilon=0.1)
    engine.register("count", CountQuery())
    engine.register("small", PredicateCountQuery(lambda item: item < 50, description="x < 50"))
    return network, engine


def count_send_batches(network) -> list:
    sizes = []
    send_batch = network.send_batch

    def counted(links, sizes_, protocol="unknown", require_edge=True):
        sizes.append(len(links))
        return send_batch(links, sizes_, protocol=protocol, require_edge=require_edge)

    network.send_batch = counted
    return sizes


def test_perfect_links_pay_one_send_batch_per_sweep():
    network, engine = stream_network(ReliableRadio())
    reference, reference_engine = stream_network(PerLevelRadio())
    calls = count_send_batches(network)
    reference_calls = count_send_batches(reference)
    queries = len(engine.queries())
    for epoch in range(3):
        # Every node's item count and its share below 50 move every epoch,
        # so both standing queries have something to send.
        updates = {
            node: [(11 * node + 37 * epoch) % 100] * (1 + (node + epoch) % 3)
            for node in network.flat_tree.node_ids
        }
        del calls[:], reference_calls[:]
        assert engine.advance_epoch(updates) == reference_engine.advance_epoch(updates)
        assert len(calls) == queries  # one per sweep, however many levels
        assert len(reference_calls) > queries
        assert sum(calls) == sum(reference_calls)  # the same links all told
    assert network.ledger.snapshot() == reference.ledger.snapshot()
