"""Differential tests for the array-native charged send.

``SensorNetwork.send_batch`` takes a ``(k, 2)`` link array or a tuple list.
On ids ``0..n-1`` one array pass checks the whole batch, and the radio draws
and the ledger charges it as arrays; a bad batch, a tuple batch of at most
``SMALL_BATCH`` links or sparse ids run the ordered tuple-list check.  Each
test here drives twin networks — one fed arrays, one fed tuple lists — on a
sized or an unsized ledger and holds them to the same copies, exceptions,
ledgers, mark deltas and telemetry; a bad link raises the ordered loop's
error.  The radio's draws depend on each link and its send count only, so a
batch, its permutation, its single-link batches and per-edge sends charge
the same.  Whole runs against the per-edge reference on the retired dict
ledger are ``tests/test_oracle.py``'s.
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
    DeliveryError,
    TopologyError,
)
from repro.faults import HeartbeatDetector
from repro.network import (
    EXECUTION_MODES,
    CommunicationLedger,
    DuplicatingRadio,
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

LEDGERS = ("sized", "unsized")


def _network(n, seed, ledger="unsized", radio=None, budget=None, stride=1, offset=0):
    """A random-geometric field; ``stride``/``offset`` make the ids sparse."""
    graph = random_geometric_links(n, seed=seed)
    if (stride, offset) != (1, 0):
        graph = nx.relabel_nodes(
            graph.to_networkx(), {node: node * stride + offset for node in range(n)}
        )
    size = (n - 1) * stride + offset + 1 if ledger == "sized" else None
    ledger = CommunicationLedger(size, per_node_budget_bits=budget)
    network = SensorNetwork(
        graph, root=offset, radio=radio, degree_bound=None, ledger=ledger
    )
    network.telemetry = SpanTracer()
    return network


def _observe(network, mark):
    """Everything a send can move, as comparable plain values."""
    ledger = network.ledger
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


@pytest.mark.parametrize("ledger", LEDGERS)
@_quick
@given(data=st.data(), budget=st.integers(50, 2000))
def test_budget_raises_at_the_same_transmission(ledger, data, budget):
    n = 16
    results = _assert_twins_agree(
        lambda: _network(n, 1, ledger, budget=budget),
        data.draw(_batches(n)),
    )
    assert all(
        result is BudgetExceededError or isinstance(result, list)
        for result in results
    )


# ---------------------------------------------------------------------- #
# Order-free draws: a send's outcome is a function of its link and count
# ---------------------------------------------------------------------- #
_RADIOS = {
    "lossy": lambda seed: LossyRadio(0.3, seed=seed),
    "lossy-failing": lambda seed: LossyRadio(0.6, seed=seed, max_retries=2),
    "duplicating": lambda seed: DuplicatingRadio(0.3, seed=seed),
}


def _replay(make, batches, as_array, per_edge, size_of):
    """Send ``batches`` on a fresh network — each as one ``send_batch``, or
    link by link through ``send`` — and return the error (or ``None``), the
    ledger snapshot, the copies each link delivered, in send order, and what
    the radio draws next for every link sent (after an error too: a path
    that stops at a budget or a loss must leave the same send counts)."""
    network = make()
    copies: dict[tuple[int, int], list[int]] = {}
    try:
        for links in batches:
            sizes = [size_of(link) for link in links]
            if per_edge:
                delivered = [
                    network.send(*link, None, size, protocol="t").metadata["copies_delivered"]
                    for link, size in zip(links, sizes)
                ]
            elif as_array:
                delivered = network.send_batch(
                    np.asarray(links, dtype=np.int64).reshape(-1, 2), np.asarray(sizes), "t"
                ).tolist()
            else:
                delivered = network.send_batch(links, sizes, "t")
            for link, count in zip(links, delivered):
                copies.setdefault(link, []).append(count)
        error = None
    except (BudgetExceededError, DeliveryError) as raised:
        error, copies = (type(raised).__name__, str(raised)), None
    attempts, delivered, failed = network.radio.filter_batch(
        sorted({link for links in batches for link in links})
    )
    return error, network.ledger.snapshot(), copies, (attempts.tolist(), delivered.tolist(), failed)


@pytest.mark.parametrize("ledger", LEDGERS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data=st.data(),
    seed=st.integers(0, 5),
    radio=st.sampled_from(sorted(_RADIOS)),
    budget=st.sampled_from([None, 60, 10**6]),
    as_array=st.booleans(),
)
def test_draws_do_not_depend_on_order_or_batching(ledger, data, seed, radio, budget, as_array):
    """One multiset of link sends charges the same ledger and delivers the
    same copies per link as one batch, permuted, as single-link batches and
    as per-edge sends; a link repeated in a batch is two sends.  Each link
    carries one size, so a permutation moves no bits between sends.  A
    budget or a lost send raises where the sends stop, so only the paths
    that keep the order must agree once one of them raises."""
    n = 16
    edges = sorted(_network(n, seed).graph.edges())
    link = st.sampled_from(edges).flatmap(lambda edge: st.sampled_from([edge, edge[::-1]]))
    links = data.draw(st.lists(link, min_size=1, max_size=3 * SMALL_BATCH))
    order = data.draw(st.permutations(range(len(links))))

    def make():
        return _network(n, seed, ledger, radio=_RADIOS[radio](seed), budget=budget)

    def size_of(link):
        return 1 + (7 * link[0] + 3 * link[1]) % 40

    whole = _replay(make, [links], as_array, False, size_of)
    assert _replay(make, [[each] for each in links], as_array, False, size_of) == whole
    assert _replay(make, [links], as_array, True, size_of) == whole
    permuted = _replay(make, [[links[i] for i in order]], as_array, False, size_of)
    if whole[0] is None and permuted[0] is None:
        assert permuted[1:] == whole[1:]
    if budget is None:
        # Which send fails for good does not depend on the order either.
        assert (whole[0] is None) == (permuted[0] is None)


# ---------------------------------------------------------------------- #
# Sizes: the batched paths take what ``send`` takes
# ---------------------------------------------------------------------- #
_EDGES = [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda net: net.send_batch(_EDGES, [2.5] * 3, require_edge=False), "2.5"),
        (
            lambda net: net.send_batch(
                np.array([_EDGES[0]] * 25), np.full(25, 2.5), require_edge=False
            ),
            "2.5",
        ),
        (lambda net: net.send_batch(_EDGES, np.array([True] * 3), require_edge=False), "True"),
        (lambda net: net.send_batch(_EDGES, [4, True, 4], require_edge=False), "True"),
        (
            lambda net: net.send_batch(
                np.array(_EDGES), np.full(3, 2**63, dtype=np.uint64), require_edge=False
            ),
            "9223372036854775808",
        ),
        (lambda net: net.send(0, 1, None, 2**63), "9223372036854775808"),
        (lambda net: net.ledger.charge_array([0], [1], [2.5]), "2.5"),
        (lambda net: net.ledger.charge_array([0], [1], np.array([True])), "True"),
        (lambda net: net.ledger.charge_batch([(0, 1)], [2.5]), "2.5"),
        (lambda net: net.ledger.charge_batch([(0, 1)] * 25, [2**63] * 25), "9223372036854775808"),
    ],
    ids=[
        "send_batch-float-list",
        "send_batch-float-array",
        "send_batch-bool-array",
        "send_batch-bool-in-list",
        "send_batch-uint64-2**63",
        "send-2**63",
        "charge_array-float",
        "charge_array-bool",
        "charge_batch-float",
        "charge_batch-2**63",
    ],
)
def test_a_size_send_refuses_is_refused_before_any_draw_or_charge(call, named):
    def make():
        return _network(12, 0, "sized", radio=LossyRadio(0.3, seed=1))

    network = make()
    with pytest.raises(ConfigurationError, match=rf"size_bits must be .*got {named}$"):
        call(network)
    assert network.ledger.total_messages == 0
    twin = make()
    for each in (network, twin):
        each.send_batch(_EDGES * 4, [8] * 12, require_edge=False)
    assert network.ledger.snapshot() == twin.ledger.snapshot()


def test_array_links_reach_the_ledger_as_arrays(monkeypatch):
    """The branch under test is the one taken: no tuple list is charged."""
    network = _network(24, 0, "sized")
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


def test_a_budget_on_perfect_links_is_charged_as_arrays(monkeypatch):
    """A budget no longer sends link by link: the ledger's prefix check
    charges the links up to the crossing one and raises the per-edge error."""
    network = _network(24, 0, "sized", budget=10)

    def one_at_a_time(*args, **kwargs):
        raise AssertionError("a budgeted perfect-link batch was charged link by link")

    monkeypatch.setattr(network.ledger, "charge", one_at_a_time)
    monkeypatch.setattr(network.ledger, "charge_batch", one_at_a_time)
    links = np.asarray([(0, 1), (2, 3), (0, 4), (5, 6)])
    with pytest.raises(BudgetExceededError) as raised:
        network.send_batch(links, np.asarray([6, 6, 6, 6]), require_edge=False)
    assert str(raised.value) == "node 0 exceeded per-node budget of 10 bits (12 bits used)"
    assert network.ledger.snapshot().per_node_bits == {0: 12, 1: 6, 2: 6, 3: 6, 4: 6}


def test_default_ledger_is_sized_to_the_highest_id_and_yields_to_ledger_argument():
    def graph():
        return random_geometric_links(16, seed=0)

    for mode in EXECUTION_MODES:
        ledger = SensorNetwork(graph(), execution=mode).ledger
        assert type(ledger) is CommunicationLedger and ledger.num_nodes == 16
    explicit = CommunicationLedger()
    assert SensorNetwork(graph(), execution="sharded", ledger=explicit).ledger is explicit
    sparse = nx.relabel_nodes(graph().to_networkx(), {node: 3 * node + 1 for node in range(16)})
    network = SensorNetwork(sparse, root=1, execution="per-edge")
    assert network.ledger.num_nodes == 3 * 15 + 2
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

    def make():
        network = SensorNetwork(
            random_geometric_links(n, seed=2),
            radio=LossyRadio(0.3, seed=4),
            degree_bound=None,
        )
        network.kill_node(dead)
        network.send_batch([good[2]], [5], protocol="warm", require_edge=False)
        return network

    edges = sorted(random_geometric_links(n, seed=2).to_networkx().edges())
    good = [edge for edge in edges if dead not in edge][:k]
    network = make()
    links = list(good)
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
    before = network.ledger.snapshot()
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
    assert network.ledger.snapshot() == before
    if fault == "non-link" and not require_edge:
        assert later_bad and expected[1].startswith(f"send between unknown nodes 0 -> {n}")
    # Nothing was drawn either: the good links now charge what they charge
    # on a twin that never saw the bad batch.
    twin = make()
    for each in (network, twin):
        each.send_batch(good, [7] * len(good), protocol="after", require_edge=False)
    assert network.ledger.snapshot() == twin.ledger.snapshot()


# ---------------------------------------------------------------------- #
# Heartbeat sweep: one masked link array vs the per-edge list walk
# ---------------------------------------------------------------------- #
def _list_walk(network, silent, bits):
    """The sweep the array branch stands in for, kept here as its oracle:
    one ``send`` per heard up-link in tree order, a lost heartbeat skipped."""
    ledger = network.ledger
    before = ledger.total_bits, ledger.total_messages
    for sender, receiver in network.flat_tree.up_links:
        if sender in silent or not (network.is_alive(sender) and network.is_alive(receiver)):
            continue
        try:
            network.send(
                sender, receiver, None, bits, protocol="faults:heartbeat", require_edge=False
            )
        except DeliveryError:
            pass
    return ledger.total_bits - before[0], ledger.total_messages - before[1]


@pytest.mark.parametrize("ledger", LEDGERS)
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("lossy", [False, True], ids=["reliable", "lossy"])
@_quick
@given(data=st.data(), seed=st.integers(0, 5), kill_root=st.booleans())
def test_heartbeat_sweep_matches_the_list_walk(ledger, sparse, lossy, data, seed, kill_root):
    n = 48
    stride, offset = (3, 5) if sparse else (1, 0)
    others = st.sets(st.integers(1, n - 1).map(lambda node: node * stride + offset), max_size=10)
    dead = data.draw(others)
    silent = data.draw(others) - dead
    detector = HeartbeatDetector(period=1)
    outcomes = []
    for walk in (False, True):
        # A lossy radio with one retry loses a heartbeat for good now and then.
        radio = LossyRadio(0.5, seed=seed, max_retries=1) if lossy else ReliableRadio()
        network = _network(n, seed, ledger, radio=radio, stride=stride, offset=offset)
        for node in dead:  # known-dead but still in the (unrepaired) tree
            network.kill_node(node)
        if kill_root:
            network.kill_node(network.root_id, allow_root=True)
        mark = network.ledger.mark()
        if walk:
            charged = _list_walk(network, silent, detector.heartbeat_bits)
        else:
            charged = detector.charge_sweep(network, silent)
        observed = _observe(network, mark)
        del observed["telemetry"]  # per-edge sends count differently
        outcomes.append((charged, observed))
    assert outcomes[0] == outcomes[1]
    bits, messages = outcomes[0][0]
    assert bits == messages * detector.heartbeat_bits
    if not lossy:
        assert messages <= n - 1 - len(silent)
