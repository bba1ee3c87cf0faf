"""Tests for the radio models and the energy model."""

import random

import numpy as np
import pytest

from repro.exceptions import DeliveryError
from repro.network.accounting import SMALL_BATCH, CommunicationLedger
from repro.network.energy import EnergyModel
from repro.network.radio import DuplicatingRadio, LossyRadio, ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.network.topology import line_links
from repro.protocols.aggregates import CountProtocol


def _sends(radio, link, count):
    """``count`` sends over one link, one batch each: ``(attempts, copies)``."""
    results = [radio.filter_batch([link]) for _ in range(count)]
    assert all(failed is None for _, _, failed in results)
    return (
        [int(attempts[0]) for attempts, _, _ in results],
        [int(copies[0]) for _, copies, _ in results],
    )


class TestReliableRadio:
    def test_always_delivers_once(self):
        attempts, copies, failed = ReliableRadio().filter_batch([(0, 1), (1, 2)])
        assert attempts.tolist() == copies.tolist() == [1, 1]
        assert failed is None


class TestLossyRadio:
    def test_zero_loss_behaves_like_reliable(self):
        attempts, _ = _sends(LossyRadio(loss_rate=0.0, seed=1), (0, 1), 20)
        assert attempts == [1] * 20

    def test_retries_until_delivery(self):
        attempts, copies = _sends(LossyRadio(loss_rate=0.7, seed=3, max_retries=64), (0, 1), 50)
        assert copies == [1] * 50
        assert any(count > 1 for count in attempts)

    def test_permanent_failure_is_reported_and_raised(self):
        radio = LossyRadio(loss_rate=0.9, seed=1, max_retries=0)
        attempts, copies, failed = radio.filter_batch([(0, 1)] * 100)
        assert failed is not None and copies[failed] == 0 and attempts[failed] == 1
        assert copies[:failed].tolist() == [1] * failed
        network = SensorNetwork.from_items([1, 2], topology="line", radio=radio)
        with pytest.raises(DeliveryError) as raised:
            for _ in range(100):
                network.send(0, 1, "x", 8)
        assert raised.value.index == 0

    def test_loss_rate_one_rejected(self):
        with pytest.raises(DeliveryError):
            LossyRadio(loss_rate=1.0)

    def test_reset_restarts_the_send_counts(self):
        radio = LossyRadio(loss_rate=0.5, seed=9)
        first = _sends(radio, (0, 1), 20)
        radio.reset()
        assert _sends(radio, (0, 1), 20) == first

    def test_unseeded_radios_draw_their_own_seed(self):
        links = [(0, 1)] * 200
        draws = [LossyRadio(0.5, seed=None).filter_batch(links)[0].tolist() for _ in range(2)]
        assert draws[0] != draws[1]

    def test_radios_hold_no_random_stream(self):
        for radio in (LossyRadio(0.1), DuplicatingRadio(0.1), LossyRadio(0.1, seed=None)):
            radio.filter_batch([(0, 1)])
            assert not any(isinstance(value, random.Random) for value in vars(radio).values())


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: LossyRadio(0.3, seed=seed),
        lambda seed: LossyRadio(0.8, seed=seed, max_retries=2),
        lambda seed: DuplicatingRadio(0.3, seed=seed),
        lambda seed: DuplicatingRadio(1.0, seed=seed),
    ],
    ids=["lossy", "lossy-failing", "duplicating", "always-duplicating"],
)
def test_short_tuple_lists_draw_what_arrays_draw(make):
    """Tuple lists up to SMALL_BATCH draw their first attempts with the
    scalar ``hash64``, link arrays with ``hash64_array``: one formula, so the
    same sends draw the same outcomes either way."""
    rng = np.random.default_rng(3)
    for seed in (0, 7, -5, 2**64 - 1):
        scalar, array = make(seed), make(seed)
        for _ in range(40):
            pairs = rng.integers(0, 6, size=(int(rng.integers(0, SMALL_BATCH + 1)), 2))
            links = [tuple(link) for link in pairs.tolist()]
            expected = scalar.filter_batch(links)
            actual = array.filter_batch(pairs)
            assert [part.tolist() for part in expected[:2]] == [
                part.tolist() for part in actual[:2]
            ]
            assert expected[2] == actual[2]


class TestDrawStatistics:
    """The hashed draws behave like independent coins, each check within 4σ.

    2,000 links — ``(a, a + 1)`` and ``(a + 1, a)`` for ``a < 1000`` — are
    each sent 50 times, one batch per round: 100,000 sends per rate.
    """

    ROUNDS = 50

    def _rounds(self, radio):
        """``(attempts, copies)`` as ``(rounds, links)`` arrays, and the links."""
        a = np.arange(1000)
        links = np.concatenate(
            (np.column_stack((a, a + 1)), np.column_stack((a + 1, a)))
        )
        results = [radio.filter_batch(links) for _ in range(self.ROUNDS)]
        assert all(failed is None for _, _, failed in results)
        attempts = np.array([result[0] for result in results])
        copies = np.array([result[1] for result in results])
        return attempts, copies

    @pytest.mark.parametrize("p", [0.05, 0.3])
    def test_lossy_draws(self, p):
        attempts, copies = self._rounds(LossyRadio(p, seed=11))
        sends = attempts.size
        assert (copies == 1).all()
        # Attempts per delivered send: geometric with mean 1/(1-p).
        sigma = np.sqrt(p / sends) / (1 - p)
        assert abs(attempts.mean() - 1 / (1 - p)) < 4 * sigma
        lost = (attempts > 1).astype(float)  # the first attempt was lost
        # Consecutive sends on one link: no lag-1 correlation.
        before, after = lost[:-1].ravel(), lost[1:].ravel()
        correlation = np.corrcoef(before, after)[0, 1]
        assert abs(correlation) < 4 / np.sqrt(before.size)
        # A link and its reverse lose alike.
        forward, reverse = lost[:, :1000], lost[:, 1000:]
        sigma = np.sqrt(p * (1 - p) * (1 / forward.size + 1 / reverse.size))
        assert abs(forward.mean() - reverse.mean()) < 4 * sigma

    @pytest.mark.parametrize("rate", [0.05, 0.3])
    def test_duplicate_share(self, rate):
        attempts, copies = self._rounds(DuplicatingRadio(rate, seed=11))
        assert (attempts == copies).all() and set(np.unique(copies)) <= {1, 2}
        sigma = np.sqrt(rate * (1 - rate) / copies.size)
        assert abs((copies == 2).mean() - rate) < 4 * sigma


class TestRadioThroughProtocols:
    """Radio edge cases exercised through the full network/protocol stack."""

    def _line_network(self, radio):
        return SensorNetwork.from_items(
            list(range(12)), topology=line_links(12), radio=radio
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
        # reset_ledger also resets the radio's send counts, so the retry
        # pattern — and therefore every charge — replays exactly.
        network.reset_ledger()
        second = CountProtocol().run(network)
        assert first.value == second.value
        assert first.total_bits == second.total_bits
        assert first.messages == second.messages

    def test_without_reset_repeated_runs_diverge(self):
        network = self._line_network(LossyRadio(loss_rate=0.4, seed=6, max_retries=64))
        first = CountProtocol().run(network)
        second = CountProtocol().run(network)  # send counts keep advancing
        assert first.value == second.value
        assert first.total_bits != second.total_bits


class TestDuplicatingRadio:
    def test_no_duplication_at_zero_rate(self):
        _, copies = _sends(DuplicatingRadio(duplicate_rate=0.0, seed=1), (0, 1), 20)
        assert copies == [1] * 20

    def test_duplicates_appear(self):
        _, copies = _sends(DuplicatingRadio(duplicate_rate=0.5, seed=2), (0, 1), 200)
        assert set(copies) == {1, 2}


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
