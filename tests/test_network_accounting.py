"""Tests for the communication ledger."""

import pytest

import numpy as np

from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.network import SensorNetwork
from repro.network.accounting import SMALL_BATCH, CommunicationLedger, NodeTraffic
from repro.network.simulator import EXECUTION_MODES
from repro.network.topology import build_links
from repro.protocols import CountProtocol, MaxProtocol, SumProtocol
from repro.protocols.base import MeteredRun

from ledger_oracle import DictLedger


class TestNodeTraffic:
    def test_bits_total(self):
        traffic = NodeTraffic(bits_sent=10, bits_received=7)
        assert traffic.bits_total == 17

    def test_merge(self):
        a = NodeTraffic(bits_sent=1, bits_received=2, messages_sent=1, messages_received=1)
        b = NodeTraffic(bits_sent=3, bits_received=4, messages_sent=2, messages_received=2)
        a.merge(b)
        assert (a.bits_sent, a.bits_received) == (4, 6)
        assert (a.messages_sent, a.messages_received) == (3, 3)


class TestCharging:
    def test_single_charge_counts_both_endpoints(self):
        ledger = CommunicationLedger()
        ledger.charge(1, 2, 100, protocol="X")
        assert ledger.traffic(1).bits_sent == 100
        assert ledger.traffic(2).bits_received == 100
        assert ledger.node_bits(1) == 100
        assert ledger.node_bits(2) == 100
        assert ledger.total_messages == 1

    def test_max_node_bits_is_individual_measure(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 10)
        ledger.charge(0, 2, 10)
        ledger.charge(0, 3, 10)
        # node 0 sent 30 bits; every receiver saw only 10.
        assert ledger.max_node_bits == 30

    def test_total_bits_counts_each_transmission_once(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 10)
        ledger.charge(1, 0, 5)
        assert ledger.total_bits == 15

    def test_per_protocol_breakdown(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 10, protocol="COUNT")
        ledger.charge(1, 2, 20, protocol="COUNT")
        ledger.charge(2, 3, 5, protocol="MIN")
        assert ledger.per_protocol_bits() == {"COUNT": 30, "MIN": 5}

    def test_zero_size_message_allowed(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 0)
        assert ledger.max_node_bits == 0
        assert ledger.total_messages == 1

    def test_negative_size_rejected(self):
        ledger = CommunicationLedger()
        with pytest.raises(Exception):
            ledger.charge(0, 1, -5)

    def test_rounds(self):
        ledger = CommunicationLedger()
        ledger.advance_round()
        ledger.advance_round(4)
        assert ledger.rounds == 5

    def test_empty_ledger_defaults(self):
        ledger = CommunicationLedger()
        assert ledger.max_node_bits == 0
        assert ledger.total_bits == 0
        assert list(ledger.nodes()) == []


class TestReads:
    @pytest.mark.parametrize(
        "make", [CommunicationLedger, lambda: CommunicationLedger(8)], ids=["unsized", "sized"]
    )
    def test_reading_an_untouched_node_adds_no_entry(self, make):
        ledger = make()
        ledger.charge(0, 3, 10)
        assert ledger.node_bits(2) == 0
        assert ledger.traffic(7) == NodeTraffic()
        assert list(ledger.nodes()) == [0, 3]
        assert ledger.snapshot().per_node_bits == {0: 10, 3: 10}

    @pytest.mark.parametrize("node", [-1, 8])
    def test_array_reads_reject_ids_outside_the_population(self, node):
        ledger = CommunicationLedger(8)
        ledger.charge(0, 7, 10)
        with pytest.raises(ConfigurationError):
            ledger.node_bits(node)
        with pytest.raises(ConfigurationError):
            ledger.traffic(node)


class TestSnapshotResetMerge:
    def test_snapshot_is_immutable_copy(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 8)
        snap = ledger.snapshot()
        ledger.charge(0, 1, 8)
        assert snap.total_bits == 8
        assert snap.max_node_bits == 8
        assert ledger.total_bits == 16

    def test_reset_clears_everything(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 8, protocol="X")
        ledger.advance_round()
        ledger.reset()
        assert ledger.total_bits == 0
        assert ledger.rounds == 0
        assert ledger.per_protocol_bits() == {}

    def test_a_metered_run_spanning_a_reset_is_the_same_on_both_ledgers(self):
        """``reset_ledger`` inside a ``MeteredRun`` rebases its mark: the run
        measures from the reset on, on the ledger as on the dict oracle."""
        results = []
        for ledger in (DictLedger(), CommunicationLedger(25)):
            network = SensorNetwork(build_links("grid", 25), ledger=ledger)
            network.assign_items({node: [node] for node in range(25)})
            MaxProtocol(domain_max=64).run(network)  # traffic before the run
            with MeteredRun(network) as run:
                CountProtocol().run(network)
                network.reset_ledger()
                inner = SumProtocol().run(network)
            results.append((run.result("sum"), inner, ledger.snapshot()))
        assert results[0] == results[1]
        outer, inner, snapshot = results[0]
        assert (outer.total_bits, outer.messages, outer.rounds) == (
            inner.total_bits,
            inner.messages,
            inner.rounds,
        )
        assert outer.max_node_bits == inner.max_node_bits == snapshot.max_node_bits > 0

    def test_merge_accumulates(self):
        a = CommunicationLedger()
        b = CommunicationLedger()
        a.charge(0, 1, 10, protocol="X")
        b.charge(1, 2, 20, protocol="X")
        b.advance_round(2)
        a.merge(b)
        assert a.total_bits == 30
        assert a.node_bits(1) == 30
        assert a.rounds == 2


class TestBudget:
    def test_budget_enforced(self):
        ledger = CommunicationLedger(per_node_budget_bits=50)
        ledger.charge(0, 1, 30)
        with pytest.raises(BudgetExceededError):
            ledger.charge(0, 1, 30)

    def test_budget_applies_to_receiver_too(self):
        ledger = CommunicationLedger(per_node_budget_bits=50)
        ledger.charge(0, 1, 40)
        with pytest.raises(BudgetExceededError):
            ledger.charge(2, 1, 40)

    def test_budget_survives_reset(self):
        ledger = CommunicationLedger(per_node_budget_bits=10)
        with pytest.raises(BudgetExceededError):
            ledger.charge(0, 1, 20)
        ledger.reset()
        with pytest.raises(BudgetExceededError):
            ledger.charge(0, 1, 20)


class TestNodeIds:
    """One id rule for every charging call: exact integers only.  numpy reads
    ``True`` as a boolean mask, so a ``bool`` id would bill every node."""

    @pytest.mark.parametrize(
        "attempt",
        [
            lambda ledger: ledger.charge(True, 2, 3),
            lambda ledger: ledger.charge(1, 2.0, 3),
            lambda ledger: ledger.charge_batch([(True, 2)], [3]),
            lambda ledger: ledger.charge_batch([(1, 2)] * SMALL_BATCH + [(True, 2)], [3] * 21),
            lambda ledger: ledger.charge_array([True], [2], [3]),
            lambda ledger: ledger.charge_array(np.array([True]), np.array([2]), [3]),
            lambda ledger: ledger.charge_array(np.array([1.0]), np.array([2]), [3]),
        ],
        ids=[
            "charge",
            "charge-float",
            "small-batch",
            "batch",
            "array-list",
            "bool-array",
            "float-array",
        ],
    )
    @pytest.mark.parametrize("num_nodes", [None, 6])
    def test_a_bool_or_float_id_charges_nothing(self, attempt, num_nodes):
        ledger = CommunicationLedger(num_nodes)
        ledger.charge(0, 1, 5)
        before = ledger.snapshot()
        with pytest.raises(ConfigurationError, match=r"node[_ ]ids? must be"):
            attempt(ledger)
        assert ledger.snapshot() == before

    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_every_path_refuses_a_bool_id_and_holds_python_ints(self, execution):
        network = SensorNetwork.from_items([1] * 30, topology="line", execution=execution)
        sends = [
            lambda: network.send(True, 2, "x", 3),
            lambda: network.send(2, True, "x", 3, require_edge=False),
            lambda: network.send_batch([(True, 2)], [3], require_edge=False),
            lambda: network.send_batch(
                [(k, k + 1) for k in range(2 * SMALL_BATCH)] + [(True, 2)],
                [3] * (2 * SMALL_BATCH + 1),
            ),
            lambda: network.send_batch(np.array([[True, False]]), np.array([3])),
        ]
        for send in sends:
            with pytest.raises(ConfigurationError):
                send()
            assert network.ledger.total_messages == 0
        network.send(np.int64(1), np.int64(2), "x", np.int64(3))
        network.send_batch([(np.int64(3), np.int64(4))], [np.int64(5)])
        snapshot = network.ledger.snapshot()
        assert snapshot.per_node_bits == {1: 3, 2: 3, 3: 5, 4: 5}
        assert snapshot.per_protocol_bits == {"unknown": 8}
        for value in (
            *snapshot.per_node_bits,
            *snapshot.per_node_bits.values(),
            *snapshot.per_protocol_bits.values(),
            snapshot.total_bits,
            snapshot.max_node_bits,
            snapshot.messages,
        ):
            assert type(value) is int


class TestLengths:
    """Parallel inputs of different lengths raise before anything is charged,
    naming both lengths (``zip`` would drop the tail, numpy broadcast)."""

    @pytest.mark.parametrize(
        "attempt, message",
        [
            (lambda ledger: ledger.charge_array([0, 1], [1, 2], [5]), "2 senders but 1 sizes"),
            (lambda ledger: ledger.charge_array([0, 1], [1], [5, 5]), "2 senders but 1 receivers"),
            (
                lambda ledger: ledger.charge_array([0, 1], [1, 2], [5, 5], copies=[1]),
                "2 senders but 1 copies",
            ),
            (
                lambda ledger: ledger.charge_batch([(k, k + 1) for k in range(30)], [2] * 29),
                "30 links but 29 sizes",
            ),
            (lambda ledger: ledger.charge_batch([(0, 1), (1, 2)], [2]), "2 links but 1 sizes"),
            (
                lambda ledger: ledger.charge_batch([(0, 1)], [2], copies=[1, 1]),
                "1 links but 2 copies",
            ),
        ],
        ids=["sizes", "receivers", "copies", "batch", "small-batch", "batch-copies"],
    )
    @pytest.mark.parametrize("num_nodes", [None, 50])
    def test_a_length_mismatch_charges_nothing(self, attempt, message, num_nodes):
        ledger = CommunicationLedger(num_nodes)
        with pytest.raises(ConfigurationError, match=message):
            attempt(ledger)
        assert ledger.snapshot() == CommunicationLedger().snapshot()
        assert sum(ledger.snapshot().per_node_bits.values()) == 2 * ledger.total_bits
