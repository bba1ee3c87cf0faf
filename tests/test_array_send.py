"""Differential tests for the array-native charged send.

``SensorNetwork.send_batch`` takes a ``(k, 2)`` link array or a tuple list.
On ids ``0..n-1`` metered by an ``ArrayLedger`` one array pass checks the
whole batch and the arrays are charged whole (after the radio's ordered
draws on imperfect links); a bad batch, a tuple batch of at most
``SMALL_BATCH`` links, sparse ids or a dict ledger (budgeted or not) run the
ordered tuple-list code.  Each test here drives twin networks — one fed
arrays, one fed tuple lists — and holds them to the same copies,
exceptions, ledgers, mark deltas, radio RNG state and telemetry; a bad link
raises the ordered loop's error.  Whole runs on the dense default ledger
against the dict ledger are ``tests/test_oracle.py``'s.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    DeadNodeError,
    TopologyError,
)
from repro.faults import HeartbeatDetector
from repro.network import (
    ArrayLedger,
    CommunicationLedger,
    LossyRadio,
    ReliableRadio,
    SensorNetwork,
)
from repro.network.accounting import SMALL_BATCH
from repro.network.topology import random_geometric_links
from repro.telemetry import SpanTracer

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
    graph = random_geometric_links(n, seed=seed)
    if (stride, offset) != (1, 0):
        graph = nx.relabel_nodes(
            graph.to_networkx(), {node: node * stride + offset for node in range(n)}
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
    def graph():
        return random_geometric_links(16, seed=0)

    kinds = {
        mode: type(SensorNetwork(graph(), execution=mode).ledger)
        for mode in ("batched", "per-edge", "vectorized", "sharded")
    }
    assert kinds == {
        "batched": ArrayLedger,
        "per-edge": CommunicationLedger,
        "vectorized": ArrayLedger,
        "sharded": ArrayLedger,
    }
    explicit = CommunicationLedger()
    assert SensorNetwork(graph(), execution="vectorized", ledger=explicit).ledger is explicit
    sparse = nx.relabel_nodes(graph().to_networkx(), {node: node + 1 for node in range(16)})
    network = SensorNetwork(sparse, root=1, execution="vectorized")
    assert type(network.ledger) is CommunicationLedger
    assert network.alive_mask is None


# ---------------------------------------------------------------------- #
# One array pass: the ordered loop's error, nothing drawn or charged
# ---------------------------------------------------------------------- #
def _ordered_error(network, links, require_edge):
    """The ordered per-link check the array pass stands in for, kept here as
    its oracle: ``(class, message)`` of the first bad link, else ``None``."""
    nodes = set(network.node_ids())
    for sender, receiver in links:
        if sender not in nodes or receiver not in nodes:
            return ConfigurationError, (
                f"send between unknown nodes {sender} -> {receiver}"
            )
        if not network.is_alive(sender) or not network.is_alive(receiver):
            return DeadNodeError, (
                f"send between dead nodes {sender} -> {receiver}; "
                "repair the tree before running protocols"
            )
        if require_edge and not network.links.has(sender, receiver):
            return TopologyError, (
                f"nodes {sender} and {receiver} are not neighbours; "
                "multi-hop delivery must be routed explicitly"
            )
    return None


@pytest.mark.parametrize(
    "as_array, fault",
    [
        (as_array, fault)
        for as_array in (False, True)
        for fault in ("negative", "unknown", "dead", "non-link")
    ]
    # Ids that are not exact integers only arise in tuple lists; a plain
    # int64 conversion would read 3.5 as node 3 and parse "3".
    + [(False, "float"), (False, "str")],
)
@pytest.mark.parametrize("require_edge", [True, False])
@pytest.mark.parametrize("position", [0, 0.5, 1])
@pytest.mark.parametrize("k", [SMALL_BATCH // 2, 2 * SMALL_BATCH])
@pytest.mark.parametrize("later_bad", [True, False])
def test_a_bad_link_raises_the_ordered_error_before_any_draw_or_charge(
    as_array, require_edge, fault, position, k, later_bad
):
    """Small tuple batches take the ordered check, larger ones and arrays
    the array pass: both report the first bad link as the loop does, with
    or without a later bad link beside it."""
    n, dead = 40, 13
    network = SensorNetwork(
        random_geometric_links(n, seed=2),
        radio=LossyRadio(0.3, seed=4),
        degree_bound=None,
    )
    assert type(network.ledger) is ArrayLedger
    network.kill_node(dead)
    links = [edge for edge in sorted(network.graph.edges()) if dead not in edge][:k]
    network.send_batch([links[2]], [5], protocol="warm", require_edge=False)
    position = int(position * (k - 1))
    sender = links[position][0]
    far = next(
        node
        for node in range(n)
        if node not in (sender, dead) and not network.links.has(sender, node)
    )
    links[position] = {
        "negative": (sender, -1),
        "unknown": (n + 7, sender),
        "dead": (sender, dead),
        "non-link": (sender, far),
        "float": (sender + 0.5, links[position][1]),
        "str": (str(sender), links[position][1]),
    }[fault]
    if later_bad:
        links.append((0, n))  # a later bad link must not be the one reported
    sizes = list(range(1, len(links) + 1))
    before = (network.ledger.snapshot(), network.radio._rng.getstate())
    expected = _ordered_error(network, links, require_edge)
    if expected is None:  # a non-link alone is no error without the edge check
        assert fault == "non-link" and not require_edge
        network.send_batch(links, sizes, protocol="test", require_edge=False)
        return
    if as_array:
        links, sizes = np.asarray(links), np.asarray(sizes)
    with pytest.raises(expected[0]) as raised:
        network.send_batch(links, sizes, protocol="test", require_edge=require_edge)
    assert str(raised.value) == expected[1]
    assert (network.ledger.snapshot(), network.radio._rng.getstate()) == before
    if fault == "non-link" and not require_edge:
        assert later_bad and expected[1].startswith(f"send between unknown nodes 0 -> {n}")


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
