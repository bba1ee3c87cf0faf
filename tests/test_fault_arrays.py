"""Differential tests: the array fault-epoch paths against their references.

A fault epoch runs three array implementations, each beside a reference that
states the same thing one message at a time:

* the root election builds its link sequence as one ``(k, 2)`` array
  (``RootElection._plan_arrays``) — reference: the tuple-list builder
  (``_plan_reference``), which a ``"per-edge"`` network also charges message
  by message;
* the repair finds its attached set from masks over the ``FlatTree`` arrays
  — reference: the per-edge walk down the old tree;
* the vectorized engine charges a sweep's levels in one ``send_batch`` —
  reference: one call per level (what any radio other than the perfect-link
  singleton still gets).

Scenarios are drawn by hypothesis at small sizes so a failure shrinks to a
minimal field; twins are built from the same draw and must agree on every
result object, the ledger, the radio's RNG state and — when a link fails for
good — the exception and the prefix charged before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.fastpath import HAVE_NUMPY
from repro.exceptions import (
    BudgetExceededError,
    DeadNodeError,
    DeliveryError,
    ReproError,
)
from repro.faults import RootElection, TreeRepair
from repro.network import CommunicationLedger, FlatTree, SensorNetwork
from repro.network.radio import DELIVERED_ONCE, LossyRadio, RadioModel, ReliableRadio
from repro.network.topology import build_topology
from repro.streaming import CountQuery, PredicateCountQuery, engine_for

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the array paths require the 'fast' extra (numpy)"
)

_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module", autouse=True)
def numpy_rewire_on_small_trees():
    """``FlatTree.rewire`` keeps small trees on its pure-Python path; these
    fields are small, and it is the array path that is under test."""
    import repro.network.flat_tree as flat_tree_module

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flat_tree_module, "_NUMPY_REWIRE_MIN_NODES", 0)
        yield


class FailingRadio(RadioModel):
    """Perfect links until the ``fail_at``-th transmission, which fails for good."""

    def __init__(self, fail_at: int) -> None:
        self.fail_at = fail_at
        self.sent = 0

    def transmit(self, sender: int, receiver: int):
        self.sent += 1
        if self.sent == self.fail_at:
            raise DeliveryError(f"link {sender}->{receiver} is jammed")
        return DELIVERED_ONCE


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
    radio: tuple
    crashed: frozenset
    dropped: frozenset
    #: Picks tree edges to cut with ``graph.remove_edge`` (no fault event).
    cut_children: frozenset
    detach_highest: bool

    def radio_model(self):
        kind, parameter = self.radio
        if kind == "lossy":
            return LossyRadio(0.25, seed=parameter, max_retries=6)
        if kind == "failing":
            return FailingRadio(parameter)
        return ReliableRadio()

    def network(self, execution: str) -> SensorNetwork:
        # Each twin owns its graph: link drops mutate it.
        graph = build_topology(self.topology, self.num_nodes, seed=self.seed)
        return SensorNetwork.from_items(
            [1] * graph.number_of_nodes(),
            topology=graph,
            degree_bound=self.degree_bound,
            radio=self.radio_model(),
            execution=execution,
        )

    def damage(self, network: SensorNetwork) -> None:
        """Crash nodes and cut links, tree edges included, without repairing."""
        for node in sorted(self.crashed):
            network.kill_node(node)
        for u, v in sorted(self.dropped):
            if network.graph.has_edge(u, v):
                network.graph.remove_edge(u, v)
        for child in sorted(self.cut_children):
            parent = network.tree.parent.get(child)
            if parent is not None and network.graph.has_edge(child, parent):
                network.graph.remove_edge(child, parent)


@st.composite
def fields(draw, radios=("reliable", "lossy", "failing")):
    topology = draw(st.sampled_from(["grid", "random_geometric", "ring", "random_tree"]))
    num_nodes = (
        draw(st.sampled_from([9, 16, 25]))
        if topology == "grid"
        else draw(st.integers(min_value=6, max_value=28))
    )
    seed = draw(st.integers(min_value=0, max_value=7))
    graph = build_topology(topology, num_nodes, seed=seed)
    nodes = sorted(graph.nodes())
    edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
    others = st.sampled_from(nodes[1:])
    kind = draw(st.sampled_from(radios))
    parameter = draw(st.integers(min_value=1, max_value=60)) if kind != "reliable" else 0
    return Field(
        topology=topology,
        num_nodes=num_nodes,
        seed=seed,
        degree_bound=draw(st.sampled_from([None, 3])),
        radio=(kind, parameter),
        crashed=frozenset(draw(st.sets(others, max_size=len(nodes) // 3))),
        dropped=frozenset(draw(st.sets(st.sampled_from(edges), max_size=len(edges) // 3))),
        cut_children=frozenset(draw(st.sets(others, max_size=3))),
        detach_highest=draw(st.booleans()),
    )


def observe(network: SensorNetwork) -> dict:
    """Everything two twins must agree on after a step."""
    rng = getattr(network.radio, "_rng", None)
    return {
        "root": network.root_id,
        "parent": dict(network.tree.parent),
        "snapshot": network.ledger.snapshot(),
        "counters": network.ledger.counters_snapshot(),
        "radio": rng.getstate() if rng is not None else getattr(network.radio, "sent", None),
    }


def attempt(step):
    """``step()``'s result, or the named error it raised (type and message)."""
    try:
        return "ok", step()
    except ReproError as error:
        return type(error), str(error)


def assert_flat_view_is_current(network: SensorNetwork) -> None:
    rebuilt = FlatTree.from_spanning_tree(network.tree)
    assert network.flat_tree.to_lists() == rebuilt.to_lists()


# --------------------------------------------------------------------------- #
# Election: array builder vs the reference list builder
# --------------------------------------------------------------------------- #
def detach_the_highest_node(network: SensorNetwork) -> None:
    """Leave the highest id alive and graph-connected but *outside* the tree:
    isolate it, let a repair drop it, then give its links back unrepaired.
    It is the next election's winner — a survivor with no old tree around it."""
    highest = network.node_ids()[-1]
    links = [(highest, neighbor) for neighbor in sorted(network.graph.neighbors(highest))]
    network.graph.remove_edges_from(links)
    TreeRepair().repair(network)
    network.graph.add_edges_from(links)


def fail_over_twice(field: Field, execution: str) -> list:
    network = field.network(execution)
    repair = TreeRepair(election=RootElection())
    steps = []

    def crash_root_and_repair():
        network.kill_node(network.root_id, allow_root=True)
        return repair.repair(network)

    if field.detach_highest:
        outcome = attempt(lambda: detach_the_highest_node(network))
        steps.append((outcome, observe(network)))
        if outcome[0] != "ok":
            return steps
    field.damage(network)
    for _ in range(2):  # the second blow lands on the first winner
        outcome = attempt(crash_root_and_repair)
        steps.append((outcome, observe(network)))
        if outcome[0] != "ok":
            break
    return steps


@pytest.mark.parametrize("execution", ["batched", "vectorized"])
@_settings
@given(field=fields())
def test_array_election_equals_the_per_edge_reference(execution, field):
    """Equal ``RepairResult`` (its ``ElectionResult`` included), ledger
    ``snapshot()`` / ``counters_snapshot()``, tree and radio state after each
    of two fail-overs — or the same error after the same charged prefix."""
    assert fail_over_twice(field, execution) == fail_over_twice(field, "per-edge")


@_settings
@given(field=fields(radios=("reliable",)))
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
        ("vectorized", "_plan_arrays"),
        ("per-edge", "_plan_reference"),
    ):
        network = SensorNetwork.from_items([1] * 9, topology="grid", execution=execution)
        network.kill_node(0, allow_root=True)
        RootElection().elect(network)
        assert calls.pop() == expected
    # Ids that are not 0..n-1 have no alive mask: the reference, silently.
    graph = build_topology("ring", 8)
    sparse = SensorNetwork(
        nx.relabel_nodes(graph, {node: 10 * node for node in graph}), root=0
    )
    sparse.kill_node(0, allow_root=True)
    RootElection().elect(sparse)
    assert calls.pop() == "_plan_reference"


# --------------------------------------------------------------------------- #
# Repair: mask attach sweep vs the per-edge walk
# --------------------------------------------------------------------------- #
def repair_twice(field: Field, execution: str) -> list:
    network = field.network(execution)
    steps = []

    def step():
        result = TreeRepair().repair(network)
        assert_flat_view_is_current(network)
        return result

    field.damage(network)
    outcome = attempt(step)
    steps.append((outcome, observe(network)))
    if outcome[0] == "ok":
        # Half the casualties come back and the dropped links heal: alive
        # nodes outside the old tree, re-entering it.
        for node in sorted(field.crashed)[::2]:
            network.revive_node(node)
        network.graph.add_edges_from(sorted(field.dropped))
        steps.append((attempt(step), observe(network)))
    return steps


@pytest.mark.parametrize("execution", ["batched", "vectorized"])
@_settings
@given(field=fields())
def test_mask_attach_sweep_equals_the_per_edge_walk(execution, field):
    """Dead nodes, dropped links and tree edges removed straight from
    ``network.graph``: same ``RepairResult``, tree, ledger and radio state."""
    assert repair_twice(field, execution) == repair_twice(field, "per-edge")


def test_a_tree_edge_removed_behind_the_repairs_back_is_noticed():
    """No fault event, no dead node — only ``graph.remove_edge`` on a tree
    edge.  The mask sweep must probe the graph, not trust the tree."""
    results = []
    for execution in ("vectorized", "per-edge"):
        network = SensorNetwork.from_items(
            [1] * 16, topology="grid", degree_bound=None, execution=execution
        )
        child = max(network.tree.parent)
        network.graph.remove_edge(child, network.tree.parent[child])
        result = TreeRepair().repair(network)
        assert result.parent_changed == (child,)
        results.append((result, dict(network.tree.parent), network.ledger.snapshot()))
    assert results[0] == results[1]


# --------------------------------------------------------------------------- #
# Stream sweep: one buffered charge vs one charge per level
# --------------------------------------------------------------------------- #
def stream_twin(radio, ledger=None):
    graph = build_topology("grid", 36)
    network = SensorNetwork(
        graph, radio=radio, degree_bound=3, ledger=ledger, execution="vectorized"
    )
    engine = engine_for(network, epsilon=0.1)
    engine.register("count", CountQuery())
    engine.register("small", PredicateCountQuery(lambda item: item < 50, description="x < 50"))
    return network, engine


def run_epochs(network, engine, kill_before_epoch=None, epochs=4):
    steps = []
    for epoch in range(epochs):
        if epoch == kill_before_epoch:
            # An inner node dies and nobody repairs: the sweep meets a dead
            # endpoint mid-way up, after the deeper levels went out.
            victim = next(
                node
                for node in network.tree.nodes_top_down()[1:]
                if network.tree.children[node]
            )
            network.kill_node(victim)
        updates = {
            node: [(7 * node + 13 * epoch) % 100] for node in network.tree.parent
        }
        outcome = attempt(lambda: engine.advance_epoch(updates))
        steps.append((outcome, network.ledger.snapshot()))
        if outcome[0] != "ok":
            break
    return steps


def test_buffered_sweep_equals_per_level_sweep_up_to_a_dead_endpoint():
    buffered = run_epochs(*stream_twin(ReliableRadio()), kill_before_epoch=2)
    per_level = run_epochs(*stream_twin(PerLevelRadio()), kill_before_epoch=2)
    assert buffered == per_level
    assert buffered[-1][0][0] is DeadNodeError
    # The levels below the dead node were charged before the error, not lost
    # with the buffer: the failing epoch moved the ledger.
    assert buffered[-1][1].total_bits > buffered[-2][1].total_bits


def test_a_per_node_budget_still_fails_at_the_same_transmission():
    # Enough for the first two epochs, not for the third (read off a dry run).
    unbudgeted = run_epochs(*stream_twin(ReliableRadio()))
    budget = (unbudgeted[1][1].max_node_bits + unbudgeted[2][1].max_node_bits) // 2
    buffered = run_epochs(
        *stream_twin(ReliableRadio(), CommunicationLedger(per_node_budget_bits=budget))
    )
    per_level = run_epochs(
        *stream_twin(PerLevelRadio(), CommunicationLedger(per_node_budget_bits=budget))
    )
    assert buffered == per_level
    assert len(buffered) == 3 and buffered[-1][0][0] is BudgetExceededError


def count_send_batches(network) -> list:
    sizes = []
    send_batch = network.send_batch

    def counted(links, sizes_, protocol="unknown", require_edge=True):
        sizes.append(len(links))
        return send_batch(links, sizes_, protocol=protocol, require_edge=require_edge)

    network.send_batch = counted
    return sizes


def test_perfect_links_pay_one_send_batch_per_sweep():
    network, engine = stream_twin(ReliableRadio())
    reference, reference_engine = stream_twin(PerLevelRadio())
    calls = count_send_batches(network)
    reference_calls = count_send_batches(reference)
    queries = len(engine.queries())
    for epoch in range(3):
        # Every node's item count and its share below 50 move every epoch,
        # so both standing queries have something to send.
        updates = {
            node: [(11 * node + 37 * epoch) % 100] * (1 + (node + epoch) % 3)
            for node in network.tree.parent
        }
        del calls[:], reference_calls[:]
        assert engine.advance_epoch(updates) == reference_engine.advance_epoch(updates)
        assert len(calls) == queries  # one per sweep, however many levels
        assert len(reference_calls) > queries
        assert sum(calls) == sum(reference_calls)  # the same links all told
    assert network.ledger.snapshot() == reference.ledger.snapshot()
