"""The differential oracle: every execution path against the per-edge reference.

The model
---------
The paper's cost model is Aspnes's synchronous message-passing model with
crash failures (*Notes on Theory of Distributed Systems*, PAPERS.md):

* computation runs in **synchronous rounds**: every message sent in a round
  is delivered (or lost, or duplicated, by the radio) before the next round
  begins, and every transmission is charged to the ledger as it is sent;
* nodes fail by **crash-stop**: a crashed node never sends or receives
  again, and a rejoin is a *fresh* node — new readings, no memory;
* **links** fail too: by a ``LinkDrop`` event, or by a direct
  ``SensorNetwork.drop_link`` that no script scheduled;
* the **root may crash**; a charged election replaces it.

``execution="per-edge"`` is the executable specification of that model —
one charged ``send`` per tree edge per round — and the retired dict ledger
(``tests/ledger_oracle.py``) is the specification of the ledger.  Every
other path, and the one column ledger every path meters on, is an
optimisation and must be indistinguishable from them.

What a run exposes
------------------
:func:`assert_same_run` compares exactly this observation of two twins:

* each step's outcome: the result, or the ``ReproError`` type and message
  after the same charged prefix — and each ``decide`` call with the
  messages charged when it was made (a round decides before it sends);
* ``ledger.snapshot()`` and ``counters_snapshot()``;
* ``root_id`` and ``flat_tree.parent_map()``;
* ``flat_tree.to_lists()``, ``up_links`` and ``down_links``;
* the ``FaultTrace`` rows (``to_dict()``; they hold no wall-clock field);
* engine answers;
* with tenants: admission decisions, ``split.columns()`` and
  ``plan_bits()``;
* with a tracer: each span's ledger deltas and the attribution columns —
  not wall-clock fields, and not the sharded path's own ``shard.*`` spans
  (they only move bits from their parent's exclusive share into theirs).

The machine
-----------
:class:`DifferentialOracle` draws one :class:`Scenario` — topology × radio
× ledger budget × workload × detector × telemetry — and builds twins from
it: the per-edge reference on the dict ledger (traced through the retired
dict folds), and every candidate path admissible for the draw
(:meth:`Scenario.candidates`) on the one ``CommunicationLedger``.  Each
rule is applied to every twin, and the twins are compared after every step;
after the first error no further rule is applied.  Hypothesis shrinks a
failure to a minimal field and fault script.

The grid
--------
A random draw need not reach every combination in one run, so
:func:`test_every_cell_of_the_grid_runs_the_same` also drives the same twins
through every topology × radio × workload × fault script cell, the other
axes and the script's choices seeded by the cell's name.  It runs with the
``SpanningTree`` view refused: the per-edge reference reads the flat tree
node by node, like every other path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.core.apx_median import ApproximateMedianProtocol
from repro.core.apx_median2 import PolyloglogMedianProtocol
from repro.core.median import DeterministicMedianProtocol
from repro.core.rep_count import RepetitionPolicy
from repro.distinct import ExactDistinctCountProtocol
from repro.exceptions import ReproError
from repro.faults import (
    FaultEngine,
    HeartbeatDetector,
    LinkDrop,
    LinkRestore,
    NodeCrash,
    NodeRejoin,
    RootCrash,
    TreeRepair,
    run_faulty_stream,
)
from repro.network import CommunicationLedger, SensorNetwork
from repro.network.radio import (
    DuplicatingRadio,
    LossyRadio,
    RadioModel,
    ReliableRadio,
)
from repro.network.spanning_tree import SpanningTree
from repro.network.topology import build_links
from repro.protocols.aggregates import (
    AverageProtocol,
    CountProtocol,
    MaxProtocol,
    MinProtocol,
    SumProtocol,
)
from repro.protocols.apx_count import ApproxCountProtocol
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.protocols.countp import CountPredicateProtocol
from repro.protocols.epoch_convergecast import epoch_convergecast
from repro.protocols.predicates import LessThanPredicate
from repro.streaming import (
    ContinuousQueryEngine,
    CountQuery,
    DistinctCountQuery,
    PredicateCountQuery,
    QuantileQuery,
)
from repro.telemetry import CostAttribution, FlightRecorder, SpanTracer
from repro.tenancy import MultiTenantEngine

from ledger_oracle import DictLedger, RetiredDictFolds

TOPOLOGIES = ("grid", "line", "star", "ring", "random_geometric", "random_tree")
RADIOS = ("reliable", "lossy", "duplicating", "failing", "zero-copy", "per-level")
WORKLOADS = ("one-shot", "engine", "tenants")
VALUES = st.integers(min_value=0, max_value=399)


class FailingRadio(RadioModel):
    """Perfect links but one send: the ``k``-th over ``link`` since the last
    reset (counted from 0) fails for good.  Like the seeded radios, a pure
    function of the link and its send count."""

    def __init__(self, link: tuple[int, int] | None, k: int) -> None:
        self.link = link
        self.k = k
        self.reset()

    def reset(self) -> None:
        self.sends = 0

    def filter_batch(self, links):
        once = np.ones(len(links), dtype=np.int64)
        for index, link in enumerate(links):
            if tuple(map(int, link)) == self.link:
                self.sends += 1
                if self.sends == self.k + 1:
                    copies = once.copy()
                    copies[index] = 0
                    return once, copies, index
        return once, once, None

    def unsend(self, links) -> None:
        self.sends -= sum(tuple(map(int, link)) == self.link for link in links)


class ZeroCopyRadio(RadioModel):
    """Charges every link but delivers no copy over every third one."""

    def filter_batch(self, links):
        pairs = np.asarray(links, dtype=np.int64).reshape(-1, 2)
        once = np.ones(len(pairs), dtype=np.int64)
        return once, ((pairs[:, 0] + pairs[:, 1]) % 3 != 0).astype(np.int64), None


class PerLevelRadio(ReliableRadio):
    """Perfect links that are not *the* perfect-link class: every fast path
    keyed on ``type(radio) is ReliableRadio`` steps aside."""


def below_200(value: int) -> bool:
    return value < 200


@dataclass(frozen=True)
class Scenario:
    """One draw: the field, its radio and ledger, and what runs on it."""

    topology: str
    num_nodes: int
    seed: int
    degree_bound: int | None
    #: ``(kind, parameter)``: a seed for the seeded radios; for
    #: ``"failing"``, which graph link's which send fails.
    radio: tuple[str, int]
    #: ``max_retries`` of the lossy radio.
    retries: int
    #: Per-node bit budget, on every twin but a sharded one.
    budget: int | None
    workload: str
    epsilon: float
    #: ``(tenant, predicate?)`` per tenant query, for ``"tenants"``.
    mix: tuple[tuple[str, bool], ...]
    tenant_bits_budget: int | None
    detector_period: int | None
    traced: bool

    def radio_model(self) -> RadioModel:
        kind, parameter = self.radio
        if kind == "lossy":
            return LossyRadio(0.3, seed=parameter, max_retries=self.retries)
        if kind == "duplicating":
            return DuplicatingRadio(0.3, seed=parameter)
        if kind == "failing":
            low, high = build_links(self.topology, self.num_nodes, seed=self.seed).edges()
            if not low.size:
                return FailingRadio(None, 0)
            edge = (parameter // 2) % low.size
            link = (int(low[edge]), int(high[edge]))
            return FailingRadio(link if parameter % 2 else link[::-1], parameter % 3)
        if kind == "zero-copy":
            return ZeroCopyRadio()
        if kind == "per-level":
            return PerLevelRadio()
        return ReliableRadio()

    def candidates(self) -> list[str]:
        """Every path checked against the reference: ``"per-edge"`` and
        ``"batched"`` (each query on the kernel the engine picks) on the one
        ledger, carrying the scenario's budget; sharded workers need perfect
        links and no budget."""
        paths = ["per-edge", "batched"]
        if self.budget is None and self.radio[0] == "reliable":
            paths.append("sharded")
        return paths


@st.composite
def scenarios(draw) -> Scenario:
    workload = draw(st.sampled_from(WORKLOADS))
    tenants = st.tuples(st.sampled_from(["acme", "globex", "initech"]), st.booleans())
    return Scenario(
        topology=draw(st.sampled_from(TOPOLOGIES)),
        num_nodes=draw(st.integers(min_value=1, max_value=64)),
        seed=draw(st.integers(min_value=0, max_value=7)),
        degree_bound=draw(st.sampled_from([3, None])),
        radio=(
            draw(st.sampled_from(RADIOS)),
            draw(st.integers(min_value=1, max_value=300)),
        ),
        retries=draw(st.sampled_from([16, 2])),
        budget=draw(st.sampled_from([None, None, None, 300, 3000])),
        workload=workload,
        epsilon=draw(st.sampled_from([0.1, 0.0])),
        mix=(
            tuple(draw(st.lists(tenants, min_size=1, max_size=5)))
            if workload == "tenants"
            else ()
        ),
        tenant_bits_budget=draw(st.none() | st.integers(min_value=0, max_value=400)),
        detector_period=draw(st.sampled_from([None, 1, 2])),
        traced=draw(st.booleans()),
    )


class _OneEpoch:
    """One machine epoch in the shape :func:`run_faulty_stream` drives: the
    stream yields this step's updates and fault events, and the fault
    engine steps at the machine's epoch, not the runner's loop index."""

    def __init__(self, faults: FaultEngine, epoch: int, updates: dict, events: list) -> None:
        self.network = faults.network
        self._faults = faults
        self._epoch = epoch
        self._updates = updates
        self._events = events
        self.report = None

    def initial(self) -> dict:
        return self._updates

    def pop_fault_events(self) -> list:
        return self._events

    def step(self, _epoch: int, extra_events=()):
        self.report = self._faults.step(self._epoch, extra_events)
        return self.report

    @property
    def undetected_dead(self) -> frozenset:
        return self._faults.undetected_dead


class Twin:
    """One execution path's network, fault engine, workload and record."""

    def __init__(self, scenario: Scenario, execution: str, reference: bool = False) -> None:
        """``reference`` runs the twin on the dict ledger and folds its
        attribution with the retired dict folds; a candidate without a
        budget meters on the network's default ledger."""
        self.path = f"{execution}/dict-ledger" if reference else execution
        # Each twin owns a fresh link table: its link drops are its own.
        links = build_links(scenario.topology, scenario.num_nodes, seed=scenario.seed)
        self.tracer = (
            SpanTracer(
                flight=FlightRecorder(),
                attribution=RetiredDictFolds() if reference else CostAttribution(),
            )
            if scenario.traced
            else None
        )
        if reference:
            ledger = DictLedger(per_node_budget_bits=scenario.budget)
        elif scenario.budget is not None:
            ledger = CommunicationLedger(
                links.num_nodes, per_node_budget_bits=scenario.budget
            )
        else:
            ledger = None
        self.network = network = SensorNetwork(
            links,
            radio=scenario.radio_model(),
            degree_bound=scenario.degree_bound,
            ledger=ledger,
            execution=execution,
            telemetry=self.tracer,
        )
        detector = (
            HeartbeatDetector(period=scenario.detector_period)
            if scenario.detector_period is not None
            else None
        )
        self.faults = FaultEngine(network, detector=detector, seed=scenario.seed)
        self.rows: list[dict] = []
        #: ``(node, updates, messages charged so far)`` per ``decide`` call
        #: of the one-shot epoch convergecast, kept across errors: a round
        #: decides every active node before any of its sends is charged.
        self.decided: list[tuple] = []
        self.decisions: list[tuple] = []
        self.engine = None
        self.outcome = None
        if scenario.workload == "one-shot":
            rng = random.Random(scenario.seed)
            network.assign_items(
                {node_id: [rng.randrange(1, 400)] for node_id in network.node_ids()}
            )
        elif scenario.workload == "engine":
            self.engine = ContinuousQueryEngine(network, scenario.epsilon, shard_processes=0)
            self.run(self._register_engine)
        else:
            self.engine = MultiTenantEngine(
                network,
                scenario.epsilon,
                bits_budget=scenario.tenant_bits_budget,
                shard_processes=0,
            )
            self.run(lambda twin: twin._register_tenants(scenario.mix))

    def _register_engine(self, _twin) -> None:
        self.engine.register("count", CountQuery())
        self.engine.register("low", PredicateCountQuery(below_200, "below_200"))

    def _register_tenants(self, mix) -> list:
        """The drawn count mix, then a q-digest quantile leg and a LogLog
        distinct leg: every path serves any mix of queries."""
        queries = [
            (tenant, PredicateCountQuery(below_200, "below_200") if predicate else CountQuery())
            for tenant, predicate in mix
        ]
        queries.append(("acme", QuantileQuery(0.5, universe_size=400, compression=8)))
        queries.append(("globex", DistinctCountQuery(num_registers=16)))
        for index, (tenant, query) in enumerate(queries):
            decision = self.engine.register(tenant, f"q{index}", query)
            self.decisions.append((decision.status, decision.leg, decision.signature))
        return self.decisions

    def run(self, step) -> None:
        """Apply ``step(self)``; keep its result or the named error it raised."""
        try:
            self.outcome = ("ok", step(self))
        except ReproError as error:
            self.outcome = (type(error).__name__, str(error))

    @property
    def failed(self) -> bool:
        return self.outcome is not None and self.outcome[0] != "ok"


def observe(twin: Twin) -> dict:
    """Everything a run exposes (see the module docstring)."""
    network = twin.network
    flat = network.flat_tree
    seen = {
        "outcome": twin.outcome,
        "snapshot": network.ledger.snapshot(),
        "counters": network.ledger.counters_snapshot(),
        "root": network.root_id,
        "parent": flat.parent_map(),
        "flat_tree": flat.to_lists(),
        "up_links": flat.up_links,
        "down_links": flat.down_links,
        "rows": twin.rows,
        "decided": twin.decided,
    }
    engine = twin.engine
    if isinstance(engine, MultiTenantEngine):
        seen["decisions"] = twin.decisions
        seen["answers"] = engine.answers()
        seen["columns"] = engine.split.columns()
        seen["plan_bits"] = engine.plan_bits()
    elif engine is not None:
        seen["answers"] = engine.answers()
    if twin.tracer is not None:
        seen["spans"] = [
            (
                span.name,
                span.depth,
                span.bits,
                span.messages,
                span.rounds,
                span.max_node_bits,
            )
            for span in twin.tracer.spans
            if not span.name.startswith("shard.")  # the sharded fan-out's own spans
        ]
        seen["attribution"] = [epoch.to_dict() for epoch in twin.tracer.attribution.epochs]
    return seen


def assert_same_run(reference: Twin, candidate: Twin) -> None:
    expected, actual = observe(reference), observe(candidate)
    for key, value in expected.items():
        assert actual[key] == value, f"{candidate.path} differs from {reference.path} in {key!r}"


# --------------------------------------------------------------------------- #
# Steps: each takes one twin and is applied to every twin in turn
# --------------------------------------------------------------------------- #
def stream_epoch(epoch: int, updates: dict, events: list):
    def step(twin: Twin):
        one = _OneEpoch(
            twin.faults,
            epoch,
            {node: list(values) for node, values in updates.items()},
            list(events),
        )
        if twin.engine is None:
            return one.step(epoch, one.pop_fault_events())
        trace = run_faulty_stream(twin.engine, one, one, epochs=1)
        twin.rows.extend(trace.to_dicts())
        return one.report

    return step


def tree_sweeps(dirty: set):
    """Suppressing epoch convergecast, broadcast, adaptive-size convergecast."""

    def step(twin: Twin):
        network = twin.network
        sizes: list[int] = []

        def size_bits(value: int) -> int:
            sizes.append(value)
            return max(8, value.bit_length())

        def decide(node_id, updates):
            twin.decided.append(
                (node_id, sorted(updates.items()), network.ledger.total_messages)
            )
            if node_id % 5 == 0 and not updates:
                return None
            return ("summary", 8 + (node_id % 3) * 4 + 2 * len(updates))

        stats = epoch_convergecast(network, set(dirty), decide, protocol="epoch")
        broadcast(network, "query", 24, protocol="request")
        total = convergecast(
            network,
            local_values=network.item_columns.sums(),
            combine=lambda a, b: a + b,
            size_bits=size_bits,
            protocol="sum",
        )
        return stats, total, sizes

    return step


BELOW_200 = LessThanPredicate(threshold=200, domain_max=512)

#: One-shot queries; each twin runs a fresh object, so sketch salts match.
PROTOCOLS = {
    "count": lambda: CountProtocol(),
    "countp": lambda: CountPredicateProtocol(BELOW_200),
    "sum": lambda: SumProtocol(),
    "avg": lambda: AverageProtocol(),
    "min": lambda: MinProtocol(),
    "max": lambda: MaxProtocol(),
    "distinct_exact": lambda: ExactDistinctCountProtocol(domain_max=512),
    "distinct_exact_varint": lambda: ExactDistinctCountProtocol(domain_max=None),
    "median": lambda: DeterministicMedianProtocol(domain_max=512),
    "apx_count": lambda: ApproxCountProtocol(num_registers=16),
    "apx_count_hll_below": lambda: ApproxCountProtocol(
        num_registers=8, sketch="hyperloglog", predicate=BELOW_200
    ),
    "apx_distinct": lambda: ApproxCountProtocol(num_registers=16, mode="distinct"),
    "apx_distinct_hll": lambda: ApproxCountProtocol(
        num_registers=32, mode="distinct", sketch="hyperloglog"
    ),
    "apx_median": lambda: ApproximateMedianProtocol(
        num_registers=16, repetition_policy=RepetitionPolicy.practical(cap=1)
    ),
    "apx_median2": lambda: PolyloglogMedianProtocol(
        num_registers=16, repetition_policy=RepetitionPolicy.practical(cap=1)
    ),
}


def repair(twin: Twin):
    result = TreeRepair().repair(twin.network)
    if twin.engine is not None:
        twin.engine.apply_repair(result)
    return result


def cut_tree_edge(child: int):
    """``drop_link`` on a tree edge — no fault event, no dead node — then a
    repair, which must find the cut on the link table's record rather than
    trust the tree."""

    def step(twin: Twin):
        network = twin.network
        network.drop_link(child, network.flat_tree.parent_id(child))
        return repair(twin)

    return step


def detach_the_highest_node(twin: Twin):
    """Leave the highest id alive and graph-connected but *outside* the tree:
    isolate it, let a repair drop it, then give its links back unrepaired."""
    network = twin.network
    highest = network.node_ids()[-1]
    neighbors = list(network.links.neighbors(highest))
    for neighbor in neighbors:
        network.drop_link(highest, neighbor)
    result = repair(twin)
    for neighbor in neighbors:
        network.restore_link(highest, neighbor)
    return result


class Twins:
    """The reference and every candidate of one scenario, stepped together."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.reference = Twin(scenario, "per-edge", reference=True)
        self.candidates = [Twin(scenario, execution) for execution in scenario.candidates()]
        self.pending: list = []
        self.epoch = 0
        self.compare()

    @property
    def network(self) -> SensorNetwork:
        return self.reference.network

    def compare(self) -> None:
        for candidate in self.candidates:
            assert_same_run(self.reference, candidate)

    def apply(self, step) -> None:
        if self.reference.failed:
            return
        for twin in (self.reference, *self.candidates):
            twin.run(step)
        self.compare()

    def queue(self, event) -> None:
        """Fault events queue for the next epoch's ``FaultEngine.step``."""
        self.pending.append(event)

    def graph_edges(self) -> list[tuple[int, int]]:
        low, high = self.network.links.edges()
        return list(zip(low.tolist(), high.tolist()))

    def tree_children(self) -> list[int]:
        """Every node whose tree edge is still up."""
        network = self.network
        return [
            child
            for child, parent in sorted(network.flat_tree.parent_map().items())
            if parent is not None and network.links.has(child, parent)
        ]

    def stream_epoch(self, updates: dict) -> None:
        events, self.pending = self.pending, []
        self.apply(stream_epoch(self.epoch, updates, events))
        self.epoch += 1


class DifferentialOracle(RuleBasedStateMachine):
    @initialize(scenario=scenarios())
    def build(self, scenario: Scenario) -> None:
        self.twins = Twins(scenario)

    @property
    def network(self) -> SensorNetwork:
        return self.twins.network

    @rule(data=st.data())
    def crash(self, data) -> None:
        node = data.draw(st.sampled_from(self.network.node_ids()))
        self.twins.queue(NodeCrash(node))

    @rule(data=st.data(), items=st.lists(VALUES, max_size=3))
    def rejoin(self, data, items) -> None:
        node = data.draw(st.sampled_from(self.network.node_ids()))
        self.twins.queue(NodeRejoin(node, tuple(items)))

    @precondition(lambda self: self.network.links.num_edges)
    @rule(data=st.data())
    def drop_link(self, data) -> None:
        self.twins.queue(LinkDrop(*data.draw(st.sampled_from(self.twins.graph_edges()))))

    @precondition(lambda self: self.twins.reference.faults.dropped_edges)
    @rule(data=st.data())
    def restore_link(self, data) -> None:
        edges = sorted(self.twins.reference.faults.dropped_edges)
        self.twins.queue(LinkRestore(*data.draw(st.sampled_from(edges))))

    @rule()
    def crash_root(self) -> None:
        self.twins.queue(RootCrash())

    @rule(data=st.data())
    def cut_tree_edge(self, data) -> None:
        children = self.twins.tree_children()
        if children:
            self.twins.apply(cut_tree_edge(data.draw(st.sampled_from(children))))

    @rule()
    def detach_highest(self) -> None:
        self.twins.apply(detach_the_highest_node)

    @rule(data=st.data())
    def epoch(self, data) -> None:
        updates = data.draw(
            st.dictionaries(
                st.sampled_from(self.network.node_ids()),
                st.lists(VALUES, max_size=3),
                max_size=12,
            )
        )
        self.twins.stream_epoch(updates)

    @precondition(lambda self: self.twins.scenario.workload == "one-shot")
    @rule(data=st.data())
    def sweeps(self, data) -> None:
        dirty = data.draw(st.sets(st.sampled_from(self.network.node_ids())))
        self.twins.apply(tree_sweeps(dirty))

    @precondition(lambda self: self.twins.scenario.workload == "one-shot")
    @rule(kind=st.sampled_from(sorted(PROTOCOLS)))
    def query(self, kind) -> None:
        self.twins.apply(lambda twin: PROTOCOLS[kind]().run(twin.network))


DifferentialOracle.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestDifferentialOracle = DifferentialOracle.TestCase


# --------------------------------------------------------------------------- #
# The grid: every cell of the main axes, each under a seeded fault script
# --------------------------------------------------------------------------- #
SCRIPTS = ("churn", "links", "root")


def grid_scenario(rng: random.Random, topology: str, radio: str, workload: str) -> Scenario:
    """The cell's axes; the others drawn from the same ranges as :func:`scenarios`."""
    tenants = ["acme", "globex", "initech"]
    return Scenario(
        topology=topology,
        num_nodes=rng.randint(1, 36),
        seed=rng.randrange(8),
        degree_bound=rng.choice([3, None]),
        radio=(radio, rng.randint(1, 300)),
        retries=rng.choice([16, 2]),
        budget=rng.choice([None, None, None, 300, 3000]),
        workload=workload,
        epsilon=rng.choice([0.1, 0.0]),
        mix=(
            tuple(
                (rng.choice(tenants), rng.random() < 0.5) for _ in range(rng.randint(1, 5))
            )
            if workload == "tenants"
            else ()
        ),
        tenant_bits_budget=rng.choice([None, rng.randint(0, 400)]),
        detector_period=rng.choice([None, 1, 2]),
        traced=rng.random() < 0.5,
    )


def run_script(twins: Twins, script: str, rng: random.Random, epochs: int = 6) -> None:
    """``"churn"`` crashes and rejoins nodes, ``"links"`` drops, restores and
    cuts links and detaches the highest id, ``"root"`` crashes the root."""
    ids = twins.network.node_ids()
    for epoch in range(epochs):
        if script == "churn":
            for node in rng.sample(ids, min(len(ids), rng.randint(1, 2))):
                twins.queue(NodeCrash(node))
            if epoch:
                items = tuple(rng.randrange(400) for _ in range(rng.randint(0, 3)))
                twins.queue(NodeRejoin(rng.choice(ids), items))
        elif script == "links":
            edges = twins.graph_edges()
            if edges:
                twins.queue(LinkDrop(*rng.choice(edges)))
            dropped = sorted(twins.reference.faults.dropped_edges)
            if dropped and epoch % 2:
                twins.queue(LinkRestore(*rng.choice(dropped)))
            children = twins.tree_children()
            if children and epoch % 3 == 1:
                twins.apply(cut_tree_edge(rng.choice(children)))
            if epoch == 4:
                twins.apply(detach_the_highest_node)
        elif epoch % 2:
            twins.queue(RootCrash())
            twins.queue(NodeRejoin(rng.choice(ids), (rng.randrange(400),)))
        updates = {
            node: [rng.randrange(400) for _ in range(rng.randint(0, 3))]
            for node in rng.sample(ids, min(len(ids), rng.randint(0, 12)))
        }
        twins.stream_epoch(updates)
        if twins.scenario.workload == "one-shot":
            twins.apply(tree_sweeps(set(rng.sample(ids, rng.randint(0, len(ids))))))
            kind = rng.choice(sorted(PROTOCOLS))
            twins.apply(lambda twin, kind=kind: PROTOCOLS[kind]().run(twin.network))


@pytest.mark.parametrize("script", SCRIPTS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("radio", RADIOS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_every_cell_of_the_grid_runs_the_same(
    topology, radio, workload, script, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("a path built the tree view")

    monkeypatch.setattr(SpanningTree, "from_flat", refuse)
    rng = random.Random(f"{topology}/{radio}/{workload}/{script}")
    twins = Twins(grid_scenario(rng, topology, radio, workload))
    run_script(twins, script, rng)


# --------------------------------------------------------------------------- #
# Directed: sums beyond float precision and beyond int64
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("radio", ["reliable", "lossy"])
@pytest.mark.parametrize("kind", ["sum", "avg"])
@pytest.mark.parametrize(
    "high, folds", [(1 << 50, False), (1 << 62, True)], ids=["past-2**53", "past-2**63"]
)
def test_sums_past_float_precision_and_int64(kind, radio, high, folds):
    """Item sums past 2**53 take the array kernel, whose varint widths must
    still be exact; a total past 2**63 (largest item × item count above
    INT64_MAX) takes the generic fold with Python-int partials."""
    scenario = Scenario(
        topology="random_geometric",
        num_nodes=24,
        seed=3,
        degree_bound=3,
        radio=(radio, 17),
        retries=16,
        budget=None,
        workload="one-shot",
        epsilon=0.1,
        mix=(),
        tenant_bits_budget=None,
        detector_period=None,
        traced=False,
    )
    twins = Twins(scenario)
    rng = random.Random(high)
    items = {
        node: [high + rng.randrange(1 << 20) for _ in range(2)]
        for node in twins.network.node_ids()
    }
    twins.apply(lambda twin: twin.network.assign_items(items))
    assert (twins.network.item_columns.sum_array() is None) == folds
    twins.apply(lambda twin: PROTOCOLS[kind]().run(twin.network))
    assert twins.reference.outcome[0] == "ok"
    if kind == "sum":
        total = sum(map(sum, items.values()))
        assert total > (1 << 63 if folds else 1 << 53)
        assert twins.reference.outcome[1].value == total
