"""Differential tests for the array-native charged send.

``SensorNetwork.send_batch`` takes a ``(k, 2)`` link array and, on perfect
links with known, alive endpoints, charges it whole; everything else runs
the ordered tuple-list code.  Each test here drives twin networks — one fed
arrays, one fed tuple lists (or one on the dense default ledger, one on an
explicit dict ledger) — and holds them to the same copies, exceptions,
ledgers, mark deltas, radio RNG state and telemetry.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.fastpath import HAVE_NUMPY
from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    DeadNodeError,
    TopologyError,
)
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    RootCrash,
    TreeRepair,
    run_faulty_stream,
)
from repro.network import (
    ArrayLedger,
    CommunicationLedger,
    LossyRadio,
    ReliableRadio,
    SensorNetwork,
)
from repro.network.topology import random_geometric_topology
from repro.streaming import CountQuery, PredicateCountQuery, engine_for
from repro.telemetry import CostAttribution, FlightRecorder, SpanTracer
from repro.workloads import DriftStream
from repro.workloads.faults import storm_under_churn_script

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vectorized paths require the 'fast' extra (numpy)"
)

if HAVE_NUMPY:
    import numpy as np

_quick = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

LEDGERS = ("array", "dict")


class _PlainRadio(ReliableRadio):
    """Perfect links behind a subclass: keeps every sender on the ordered
    list code, which is what the array branch is compared against."""


def _network(n, seed, ledger="dict", radio=None, budget=None, stride=1, offset=0):
    """A random-geometric field; ``stride``/``offset`` make the ids sparse."""
    graph = random_geometric_topology(n, seed=seed)
    if (stride, offset) != (1, 0):
        graph = nx.relabel_nodes(
            graph, {node: node * stride + offset for node in graph.nodes()}
        )
    if ledger == "array":
        ledger = ArrayLedger((n - 1) * stride + offset + 1)
    else:
        ledger = CommunicationLedger(per_node_budget_bits=budget)
    network = SensorNetwork(
        graph, root=offset, radio=radio, degree_bound=None, ledger=ledger
    )
    network.telemetry = SpanTracer()
    return network


def _observe(network, mark):
    """Everything a send can move, as comparable plain values."""
    ledger = network.ledger
    radio_rng = getattr(network.radio, "_rng", None)
    counters = network.telemetry.metrics.to_dict()["counters"]
    return {
        "snapshot": ledger.snapshot(),
        "counters": ledger.counters_snapshot(),
        "node_deltas": {
            node: bits
            for node, bits in ledger.node_deltas_since(mark).items()
            if bits
        },
        "max_node_delta": ledger.max_node_delta_since(mark),
        "radio_rng": None if radio_rng is None else radio_rng.getstate(),
        "telemetry": counters,
    }


def _send(network, links, sizes, as_array, require_edge):
    """One batch, as arrays or as lists → (``copies`` or exception type)."""
    if as_array:
        links = np.asarray(links, dtype=np.int64).reshape(-1, 2)
        sizes = np.asarray(sizes, dtype=np.int64)
    try:
        copies = network.send_batch(
            links, sizes, protocol="test", require_edge=require_edge
        )
    except (
        BudgetExceededError,
        ConfigurationError,
        DeadNodeError,
        TopologyError,
    ) as error:
        return type(error)
    if as_array:
        assert isinstance(copies, np.ndarray) and copies.dtype == np.int64
        return copies.tolist()
    return copies


def _assert_twins_agree(make, batches, require_edge=False, dead=()):
    """Run ``batches`` as arrays on one network and as lists on its twin."""
    outcomes = []
    for as_array in (True, False):
        network = make()
        for node in dead:
            network.kill_node(node)
        first = sorted(network.graph.nodes())[:2]  # traffic that predates the mark
        network.send_batch([tuple(first)], [3], protocol="warm", require_edge=False)
        mark = network.ledger.mark()
        results = [
            _send(network, links, sizes, as_array, require_edge)
            for links, sizes in batches
        ]
        outcomes.append((results, _observe(network, mark)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


@st.composite
def _batches(draw, n, edges=None):
    """1–3 batches of random links (pairs of ids, or graph edges) and sizes."""
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        if edges is None:
            link = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        else:
            link = st.sampled_from(edges)
        links = draw(st.lists(link, max_size=40))
        sizes = draw(
            st.lists(
                st.integers(0, 300), min_size=len(links), max_size=len(links)
            )
        )
        batches.append((links, sizes))
    return batches


@pytest.mark.parametrize("ledger", LEDGERS)
class TestArrayVersusList:
    @_quick
    @given(data=st.data(), seed=st.integers(0, 5))
    def test_reliable_radio(self, ledger, data, seed):
        n = 24
        results = _assert_twins_agree(
            lambda: _network(n, seed, ledger), data.draw(_batches(n))
        )
        assert all(isinstance(result, list) for result in results)

    @_quick
    @given(data=st.data(), seed=st.integers(0, 5))
    def test_lossy_radio_consumes_the_same_randomness(self, ledger, data, seed):
        n = 24
        _assert_twins_agree(
            lambda: _network(n, seed, ledger, radio=LossyRadio(0.3, seed=seed)),
            data.draw(_batches(n)),
        )

    @_quick
    @given(data=st.data(), seed=st.integers(0, 5))
    def test_require_edge(self, ledger, data, seed):
        n = 24
        make = lambda: _network(n, seed, ledger)  # noqa: E731
        graph = make().graph
        edges = sorted(graph.edges())
        _assert_twins_agree(make, data.draw(_batches(n, edges)), require_edge=True)
        # a non-edge is refused by both, with nothing charged
        far = next(
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and not graph.has_edge(u, v)
        )
        assert _assert_twins_agree(make, [([far], [5])], require_edge=True) == [
            TopologyError
        ]

    @_quick
    @given(data=st.data(), seed=st.integers(0, 5))
    def test_sparse_ids(self, ledger, data, seed):
        n = 16
        batches = [
            ([(u * 3 + 5, v * 3 + 5) for u, v in links], sizes)
            for links, sizes in data.draw(_batches(n))
        ]
        _assert_twins_agree(
            lambda: _network(n, seed, ledger, stride=3, offset=5), batches
        )

    def test_empty_batch_leaves_no_trace(self, ledger):
        assert _assert_twins_agree(lambda: _network(12, 0, ledger), [([], [])]) == [
            []
        ]

    def test_length_mismatch(self, ledger):
        for as_array in (True, False):
            network = _network(12, 0, ledger)
            links, sizes = [(0, 1), (1, 2)], [4]
            if as_array:
                links, sizes = np.asarray(links), np.asarray(sizes)
            with pytest.raises(ConfigurationError, match="2 links but 1 sizes"):
                network.send_batch(links, sizes, require_edge=False)
            assert network.ledger.total_messages == 0

    @pytest.mark.parametrize("bad", [-1, 12, 10**9])
    def test_unknown_id_charges_nothing(self, ledger, bad):
        batch = ([(0, 1), (2, bad), (3, 4)], [7, 7, 7])
        assert _assert_twins_agree(lambda: _network(12, 0, ledger), [batch]) == [
            ConfigurationError
        ]

    @pytest.mark.parametrize("link", [(5, 2), (2, 5)])
    def test_dead_endpoint_charges_nothing(self, ledger, link):
        batch = ([(0, 1), link, (3, 4)], [7, 7, 7])
        results = _assert_twins_agree(
            lambda: _network(12, 0, ledger), [batch, ([(0, 1)], [9])], dead=[5]
        )
        assert results == [DeadNodeError, [1]]
        # the same link is fine again once the node is back
        network = _network(12, 0, ledger)
        network.kill_node(5)
        network.revive_node(5)
        copies = network.send_batch(
            np.asarray([link]), np.asarray([7]), require_edge=False
        )
        assert copies.tolist() == [1]


@_quick
@given(data=st.data(), budget=st.integers(50, 2000))
def test_budget_raises_at_the_same_transmission(data, budget):
    n = 16
    results = _assert_twins_agree(
        lambda: _network(n, 1, budget=budget),
        data.draw(_batches(n)),
    )
    assert all(
        result is BudgetExceededError or isinstance(result, list)
        for result in results
    )


def test_array_links_reach_the_ledger_as_arrays(monkeypatch):
    """The branch under test is the one taken: no tuple list is charged."""
    network = _network(24, 0, "array")
    network.kill_node(7)

    def tuple_path(*args, **kwargs):
        raise AssertionError("perfect-link array batch fell back to the list code")

    monkeypatch.setattr(network.ledger, "charge_batch", tuple_path)
    copies = network.send_batch(
        np.asarray([(0, 1), (2, 3)]), np.asarray([4, 6]), require_edge=False
    )
    assert copies.tolist() == [1, 1]
    bits, messages = HeartbeatDetector(period=1).charge_sweep(network, {3})
    assert messages > 0 and network.ledger.total_bits == 10 + bits


def test_default_ledger_follows_execution_and_yields_to_ledger_argument():
    graph = random_geometric_topology(16, seed=0)
    kinds = {
        mode: type(SensorNetwork(graph, execution=mode).ledger)
        for mode in ("batched", "per-edge", "vectorized", "sharded")
    }
    assert kinds == {
        "batched": CommunicationLedger,
        "per-edge": CommunicationLedger,
        "vectorized": ArrayLedger,
        "sharded": ArrayLedger,
    }
    explicit = CommunicationLedger()
    assert SensorNetwork(graph, execution="vectorized", ledger=explicit).ledger is explicit
    sparse = nx.relabel_nodes(graph, {node: node + 1 for node in graph.nodes()})
    network = SensorNetwork(sparse, root=1, execution="vectorized")
    assert type(network.ledger) is CommunicationLedger
    assert network.alive_mask is None


# ---------------------------------------------------------------------- #
# Heartbeat sweep: mask-built link array vs the ordered list walk
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("ledger", LEDGERS)
@_quick
@given(data=st.data(), seed=st.integers(0, 5), kill_root=st.booleans())
def test_heartbeat_sweep_masks_match_the_list_walk(ledger, data, seed, kill_root):
    n = 48
    others = st.sets(st.integers(1, n - 1), max_size=10)
    dead = data.draw(others)
    silent = data.draw(others) - dead
    detector = HeartbeatDetector(period=1)
    outcomes = []
    for radio in (ReliableRadio(), _PlainRadio()):
        network = _network(n, seed, ledger, radio=radio)
        for node in dead:  # known-dead but still in the (unrepaired) tree
            network.kill_node(node)
        if kill_root:
            network.kill_node(network.root_id, allow_root=True)
        mark = network.ledger.mark()
        charged = detector.charge_sweep(network, silent)
        observed = _observe(network, mark)
        del observed["telemetry"]["net.links"]  # the walk may split batches
        outcomes.append((charged, observed))
    assert outcomes[0] == outcomes[1]
    bits, messages = outcomes[0][0]
    assert bits == messages * detector.heartbeat_bits
    assert messages <= n - 1 - len(silent)


# ---------------------------------------------------------------------- #
# The whole epoch: dense default ledger vs an explicit dict ledger
# ---------------------------------------------------------------------- #
def _storm_run(ledger, observed, n=96, epochs=12, seed=5):
    graph = random_geometric_topology(n, seed=seed)
    network = SensorNetwork(
        graph, degree_bound=None, ledger=ledger, execution="vectorized"
    )
    engine = engine_for(network, epsilon=0.1)
    engine.register("count", CountQuery())
    engine.register("low", PredicateCountQuery(lambda item: item < 500))
    script = storm_under_churn_script(
        network.node_ids(),
        epochs,
        storm_epoch=epochs // 4,
        storm_fraction=0.15,
        rejoin_epoch=epochs // 2,
        churn_rate=0.02,
        seed=seed,
        rejoin_value_max=1000,
    ).merge(FaultScript({3 * epochs // 4: [RootCrash()]}))
    faults = FaultEngine(
        network,
        script=script,
        repair=TreeRepair(),
        seed=seed,
        detector=HeartbeatDetector(period=1),
    )
    tracer = (
        SpanTracer(flight=FlightRecorder(), attribution=CostAttribution())
        if observed
        else None
    )
    trace = run_faulty_stream(
        engine,
        DriftStream(n, max_value=1000, seed=seed, drift_fraction=0.1),
        faults,
        epochs=epochs,
        telemetry=tracer,
    )
    result = {
        "rows": list(trace.to_dicts()),
        "snapshot": network.ledger.snapshot(),
    }
    if observed:
        result["spans"] = [
            (
                span.name,
                span.depth,
                span.bits,
                span.exclusive_bits,
                span.messages,
                span.rounds,
                span.max_node_bits,
            )
            for span in tracer.spans
        ]
        # Hotspot ids included: every fold breaks a tie at the top-k cutoff
        # the same way (more bits first, then the lowest node id).
        result["attribution"] = [epoch.to_dict() for epoch in tracer.attribution.epochs]
        result["counters"] = tracer.metrics.to_dict()["counters"]
    return network, result


@pytest.mark.parametrize("observed", [False, True])
def test_default_array_ledger_run_equals_dict_ledger_run(observed):
    dense_network, dense = _storm_run(None, observed)
    dict_network, reference = _storm_run(CommunicationLedger(), observed)
    assert type(dense_network.ledger) is ArrayLedger
    assert type(dict_network.ledger) is CommunicationLedger
    rows = dense["rows"]
    assert sum(row["crashes"] for row in rows) > 0
    assert sum(row["new_root"] is not None for row in rows) == 1
    assert dense == reference
