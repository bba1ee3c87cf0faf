"""Tests for the communication ledger."""

import pytest

from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.network.accounting import ArrayLedger, CommunicationLedger, NodeTraffic


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
        "make", [CommunicationLedger, lambda: ArrayLedger(8)], ids=["dict", "array"]
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
        ledger = ArrayLedger(8)
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
