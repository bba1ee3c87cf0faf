"""A search's sweeps charged together against the per-sweep loop.

MEDIAN and OS decide every threshold of Fig. 1's binary search from the
column of the tree nodes' items and size all their COUNTP sweeps in one 2-D
pass; all four searches add every sweep (the MIN / MAX / COUNT prelude, the
probes, APX_MEDIAN2's broadcasts) to one tally and charge each protocol once
(``repro.protocols.tally``).  That runs only where no send can fail: off
``"per-edge"``, under ``ReliableRadio`` itself, with no per-node budget and
every tree node alive.  Everywhere else each sweep is charged on the spot,
which is the specification.

Under perfect links both are one execution.  ``FoldingReliableRadio``
(``tests/conftest.py``) is perfect links that are not ``ReliableRadio``
itself, so it forces the loop: every answer (or raised error), every
``ProtocolResult`` field, the final ``ledger.snapshot()`` and the telemetry
bit and message counters per protocol must be ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ApproximateMedianProtocol,
    ApproximateOrderStatisticProtocol,
    DeterministicMedianProtocol,
    DeterministicOrderStatisticProtocol,
    PolyloglogMedianProtocol,
    RepetitionPolicy,
)
from repro.exceptions import ConfigurationError
from repro.network import CommunicationLedger, LossyRadio, SensorNetwork
from repro.network.radio import ReliableRadio
from repro.network.topology import build_links
from repro.protocols.tally import defers_sweeps
from repro.telemetry import SpanTracer

_settings = settings(
    max_examples=60,
    deadline=None,
    # ``folding_radio`` is a class: nothing to reset between examples.
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@st.composite
def fields(draw):
    """A small field: 0-3 items per node (all one value at times), some
    leaves detached with their items kept, and a ``domain_max`` that is
    unknown, the largest item, or a little above it, so thresholds fall
    past it (the varint branch of ``LessThanPredicate.encoded_bits``)."""
    topology = draw(
        st.sampled_from(["line", "star", "grid", "random_tree", "random_geometric"])
    )
    shape = (topology, draw(st.integers(1, 40)), draw(st.integers(0, 9)))
    num_nodes = build_links(*shape).num_nodes
    high = draw(st.sampled_from([0, 1, 7, 1000, 1 << 40]))
    value = st.integers(0, high)
    if draw(st.booleans()):
        value = st.just(draw(value))  # min == max
    items = {node: draw(st.lists(value, max_size=3)) for node in range(num_nodes)}
    items[0] = items[0] or [draw(value)]  # the root always holds one
    largest = max(max(values, default=0) for values in items.values())
    domain_max = draw(st.sampled_from([None, largest, largest + 3]))
    detached = draw(st.lists(st.integers(0, num_nodes - 1), max_size=4))
    return shape, items, detached, domain_max, draw(st.integers(0, 2**16))


def _build(field, radio):
    """The field on a fresh network; the ``detached`` nodes that are leaves
    of its tree are cut off it, keeping their items."""
    shape, items, detached, _, _ = field
    network = SensorNetwork(build_links(*shape), radio=radio)
    network.assign_items(items)
    flat = network.flat_tree
    leaves = flat.child_start == flat.child_end
    cut = sorted(
        {
            node
            for node in detached
            if node != network.root_id and leaves[flat.position_table[node]]
        }
    )
    if cut:
        network.set_tree(flat.rewire(removed=cut))
    return network


def _queries(field):
    *_, domain_max, seed = field
    policy = RepetitionPolicy.practical(cap=2)
    return {
        "MEDIAN": DeterministicMedianProtocol(domain_max=domain_max),
        "OS(k)": DeterministicOrderStatisticProtocol(k=1 + seed % 5, domain_max=domain_max),
        "OS(q)": DeterministicOrderStatisticProtocol(quantile=0.1, domain_max=domain_max),
        # The top rank probes past the largest item, so past domain_max.
        "OS(q=1)": DeterministicOrderStatisticProtocol(quantile=1.0, domain_max=domain_max),
        "APX_MEDIAN": ApproximateMedianProtocol(
            epsilon=0.3, num_registers=16, repetition_policy=policy, seed=seed
        ),
        "APX_OS(k)": ApproximateOrderStatisticProtocol(
            quantile=None, k=2, num_registers=16, repetition_policy=policy,
            domain_max=domain_max, seed=seed,
        ),
        "APX_MEDIAN2": PolyloglogMedianProtocol(
            num_registers=16, repetition_policy=RepetitionPolicy.practical(cap=1),
            domain_max=domain_max, seed=seed,
        ),
    }


def _outcome(network, protocol):
    network.reset_ledger()
    try:
        result = protocol.run(network)
    except Exception as error:  # both paths must raise the same error
        result = (type(error), str(error))
    return result, network.ledger.snapshot()


@_settings
@given(field=fields())
def test_a_tallied_search_is_the_per_probe_loop(field, folding_radio):
    tallied = _build(field, ReliableRadio())
    looped = _build(field, folding_radio())
    assert defers_sweeps(tallied) and not defers_sweeps(looped)
    for name, protocol in _queries(field).items():
        twin = _queries(field)[name]
        assert _outcome(tallied, protocol) == _outcome(looped, twin), name


def test_telemetry_counts_the_same_bits_and_messages(folding_radio):
    """Per protocol, a tallied search reports the ``net.bits`` and
    ``net.messages`` the per-probe loop reports (``net.batches`` and
    ``net.links`` count calls, and drop)."""
    counters = []
    for radio in (ReliableRadio(), folding_radio()):
        tracer = SpanTracer()
        network = _field(radio=radio)
        network.telemetry = tracer
        for protocol in _queries((None, None, None, 96, 5)).values():
            protocol.run(network)
        counters.append(
            [tracer.metrics.counter_series(name) for name in ("net.bits", "net.messages")]
        )
    assert counters[0] == counters[1]


def _field(radio=None, ledger=None, execution="batched"):
    network = SensorNetwork.from_items(
        [(7 * node) % 97 for node in range(30)],
        topology="random_geometric",
        seed=2,
        radio=radio,
        execution=execution,
    )
    if ledger is not None:
        network.ledger = ledger
    return network


@pytest.mark.parametrize(
    "network",
    [
        pytest.param(lambda: _field(radio=LossyRadio(0.1, seed=1)), id="lossy"),
        pytest.param(
            lambda: _field(ledger=CommunicationLedger(30, per_node_budget_bits=10**9)),
            id="budget",
        ),
        pytest.param(lambda: _field(execution="per-edge"), id="per-edge"),
    ],
)
def test_the_loop_runs_where_a_send_can_fail(network, monkeypatch):
    """A lossy radio, a per-node budget and ``"per-edge"`` keep the
    per-probe loop: nothing is charged as a tally."""
    network = network()

    def refuse(*args, **kwargs):
        raise AssertionError("a search tallied its probes where a send can fail")

    monkeypatch.setattr(SensorNetwork, "charge_totals", refuse)
    assert not defers_sweeps(network)
    for protocol in _queries((None, None, None, 96, 5)).values():
        network.reset_ledger()
        assert protocol.run(network).total_bits > 0


def test_a_dead_tree_node_keeps_the_loop():
    assert not defers_sweeps(_dead_leaf(_field()))


def test_charge_totals_is_the_sweeps_charged_one_by_one():
    """Three sweeps of different sizes over the same links, charged as one
    bit total and one message count per link, leave the ledger the three
    ``charge_array`` calls leave."""
    summed, stepwise = _field(), _field()
    links = summed.flat_tree.up_link_array
    sweeps = [np.arange(len(links)) % 7 + size for size in (1, 5, 30)]
    summed.charge_totals(links, sum(sweeps), np.full(len(links), 3), "COUNTP")
    for sizes in sweeps:
        stepwise.ledger.charge_array(links[:, 0], links[:, 1], sizes, "COUNTP")
    assert summed.ledger.snapshot() == stepwise.ledger.snapshot()


@pytest.mark.parametrize(
    "network",
    [
        pytest.param(lambda: _field(radio=LossyRadio(0.1, seed=1)), id="lossy"),
        pytest.param(
            lambda: _field(ledger=CommunicationLedger(30, per_node_budget_bits=10**9)),
            id="budget",
        ),
        pytest.param(lambda: _dead_leaf(_field()), id="dead endpoint"),
    ],
)
def test_charge_totals_refuses_where_a_send_can_fail(network):
    network = network()
    links = network.flat_tree.up_link_array
    with pytest.raises(ConfigurationError):
        network.charge_totals(links, np.ones(len(links)), np.ones(len(links)), "COUNTP")
    assert network.ledger.total_bits == 0


def _dead_leaf(network):
    network.kill_node(network.flat_tree.node_ids[-1])
    return network
