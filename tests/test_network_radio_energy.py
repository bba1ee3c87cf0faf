"""Tests for the radio models and the energy model."""

import pytest

from repro.exceptions import DeliveryError
from repro.network.accounting import CommunicationLedger
from repro.network.energy import EnergyModel
from repro.network.radio import DuplicatingRadio, LossyRadio, ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.network.topology import line_topology
from repro.protocols.aggregates import CountProtocol


class TestReliableRadio:
    def test_always_delivers_once(self):
        radio = ReliableRadio()
        for _ in range(10):
            outcome = radio.transmit(0, 1)
            assert outcome.delivered
            assert outcome.attempts == 1
            assert outcome.copies_delivered == 1


class TestLossyRadio:
    def test_zero_loss_behaves_like_reliable(self):
        radio = LossyRadio(loss_rate=0.0, seed=1)
        assert radio.transmit(0, 1).attempts == 1

    def test_retries_until_delivery(self):
        radio = LossyRadio(loss_rate=0.7, seed=3, max_retries=64)
        outcomes = [radio.transmit(0, 1) for _ in range(50)]
        assert all(outcome.delivered for outcome in outcomes)
        assert any(outcome.attempts > 1 for outcome in outcomes)

    def test_mean_attempts_tracks_loss_rate(self):
        radio = LossyRadio(loss_rate=0.5, seed=5, max_retries=200)
        attempts = [radio.transmit(0, 1).attempts for _ in range(400)]
        mean_attempts = sum(attempts) / len(attempts)
        assert 1.6 < mean_attempts < 2.5  # geometric mean 1/(1-p) = 2

    def test_permanent_failure_raises(self):
        radio = LossyRadio(loss_rate=0.999, seed=1, max_retries=0)
        with pytest.raises(DeliveryError):
            for _ in range(100):
                radio.transmit(0, 1)

    def test_loss_rate_one_rejected(self):
        with pytest.raises(DeliveryError):
            LossyRadio(loss_rate=1.0)

    def test_reset_restores_stream(self):
        radio = LossyRadio(loss_rate=0.5, seed=9)
        first = [radio.transmit(0, 1).attempts for _ in range(20)]
        radio.reset()
        second = [radio.transmit(0, 1).attempts for _ in range(20)]
        assert first == second


class TestRadioThroughProtocols:
    """Radio edge cases exercised through the full network/protocol stack."""

    def _line_network(self, radio):
        return SensorNetwork.from_items(
            list(range(12)), topology=line_topology(12), radio=radio
        )

    def test_lossy_retry_exhaustion_raises_through_protocol_run(self):
        network = self._line_network(LossyRadio(loss_rate=0.9, seed=4, max_retries=1))
        with pytest.raises(DeliveryError):
            CountProtocol().run(network)

    def test_lossy_retries_inflate_ledger_charges(self):
        reliable = self._line_network(ReliableRadio())
        lossy = self._line_network(LossyRadio(loss_rate=0.5, seed=8, max_retries=64))
        baseline = CountProtocol().run(reliable)
        inflated = CountProtocol().run(lossy)
        assert inflated.value == baseline.value == 12
        # Every retry is charged, so lossy links cost strictly more bits.
        assert inflated.total_bits > baseline.total_bits
        assert inflated.messages > baseline.messages

    def test_duplicating_radio_charges_every_copy(self):
        network = self._line_network(DuplicatingRadio(duplicate_rate=1.0, seed=2))
        network.send(0, 1, payload="x", size_bits=8, protocol="test")
        # Both delivered copies are charged to sender and receiver alike.
        assert network.ledger.total_bits == 16
        assert network.ledger.total_messages == 2
        assert network.ledger.traffic(0).bits_sent == 16
        assert network.ledger.traffic(1).bits_received == 16

    def test_duplicating_radio_doubles_protocol_cost_not_answer(self):
        reliable = self._line_network(ReliableRadio())
        duplicating = self._line_network(DuplicatingRadio(duplicate_rate=1.0, seed=2))
        baseline = CountProtocol().run(reliable)
        doubled = CountProtocol().run(duplicating)
        assert doubled.value == baseline.value == 12
        assert doubled.total_bits == 2 * baseline.total_bits

    def test_reset_makes_repeated_protocol_runs_identical(self):
        network = self._line_network(LossyRadio(loss_rate=0.4, seed=6, max_retries=64))
        first = CountProtocol().run(network)
        # reset_ledger also resets the radio's RNG stream, so the retry
        # pattern — and therefore every charge — replays exactly.
        network.reset_ledger()
        second = CountProtocol().run(network)
        assert first.value == second.value
        assert first.total_bits == second.total_bits
        assert first.messages == second.messages

    def test_without_reset_repeated_runs_diverge(self):
        network = self._line_network(LossyRadio(loss_rate=0.4, seed=6, max_retries=64))
        first = CountProtocol().run(network)
        second = CountProtocol().run(network)  # RNG stream keeps advancing
        assert first.value == second.value
        assert first.total_bits != second.total_bits


class TestDuplicatingRadio:
    def test_no_duplication_at_zero_rate(self):
        radio = DuplicatingRadio(duplicate_rate=0.0, seed=1)
        assert all(radio.transmit(0, 1).copies_delivered == 1 for _ in range(20))

    def test_duplicates_appear(self):
        radio = DuplicatingRadio(duplicate_rate=0.5, seed=2)
        copies = [radio.transmit(0, 1).copies_delivered for _ in range(200)]
        assert set(copies) == {1, 2}
        fraction_duplicated = sum(1 for c in copies if c == 2) / len(copies)
        assert 0.35 < fraction_duplicated < 0.65


class TestEnergyModel:
    def test_transmit_more_expensive_than_receive(self):
        model = EnergyModel()
        assert model.transmit_cost(100) > model.receive_cost(100)

    def test_report_from_ledger(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 1000)
        ledger.charge(1, 2, 500)
        report = EnergyModel().report(ledger)
        assert set(report.per_node_nj) == {0, 1, 2}
        # Node 1 both received 1000 and sent 500 — it is the hottest node.
        assert report.peak_node_nj == report.per_node_nj[1]
        assert report.total_nj == pytest.approx(sum(report.per_node_nj.values()))

    def test_empty_ledger_report(self):
        report = EnergyModel().report(CommunicationLedger())
        assert report.total_nj == 0.0
        assert report.peak_node_nj == 0.0
