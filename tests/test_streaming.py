"""Tests for the continuous-query streaming engine and its substrates."""

from __future__ import annotations

import pytest

from repro.core.definitions import rank
from repro.exceptions import ConfigurationError
from repro.network.radio import DuplicatingRadio
from repro.network.simulator import SensorNetwork
from repro.network.topology import line_links
from repro.protocols.epoch_convergecast import epoch_convergecast
from repro.streaming import (
    ContinuousQueryEngine,
    CountQuery,
    CountSummary,
    DistinctCountQuery,
    DistinctSummary,
    MedianQuery,
    PredicateCountQuery,
    QuantileSummary,
    RecomputeEngine,
    run_stream,
)
from repro.workloads.streams import (
    STREAM_WORKLOADS,
    BurstStream,
    ChurnStream,
    DriftStream,
    SeasonalStream,
    make_stream,
)

DOMAIN = 1 << 12


def empty_network(num_nodes: int, topology=None) -> SensorNetwork:
    """A network with the right shape and no items (streams fill it)."""
    network = SensorNetwork.from_items(
        [0] * num_nodes,
        topology=topology if topology is not None else "grid",
    )
    network.clear_items()
    return network


def standard_engine(num_nodes: int = 25, epsilon: float = 0.1) -> ContinuousQueryEngine:
    network = empty_network(num_nodes)
    engine = ContinuousQueryEngine(network, epsilon=epsilon)
    engine.register("count", CountQuery())
    engine.register("median", MedianQuery(universe_size=DOMAIN + 1, compression=256))
    return engine


# --------------------------------------------------------------------------- #
# Stream workloads
# --------------------------------------------------------------------------- #
class TestStreamWorkloads:
    def test_registry_and_factory(self):
        assert set(STREAM_WORKLOADS) == {"drift", "burst", "churn", "seasonal"}
        stream = make_stream("drift", 10, max_value=100, seed=3)
        assert isinstance(stream, DriftStream)

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            make_stream("tidal", 10)

    def test_streams_are_deterministic_in_seed(self):
        for cls in (DriftStream, BurstStream, ChurnStream, SeasonalStream):
            a = cls(20, max_value=DOMAIN, seed=7)
            b = cls(20, max_value=DOMAIN, seed=7)
            assert a.initial() == b.initial()
            for epoch in range(1, 8):
                assert a.step(epoch) == b.step(epoch)

    def test_drift_changes_bounded_fraction(self):
        stream = DriftStream(100, max_value=DOMAIN, seed=0, drift_fraction=0.1)
        stream.initial()
        changed = [len(stream.step(epoch)) for epoch in range(1, 30)]
        assert 0 < sum(changed) / len(changed) < 30  # ~10 expected

    def test_churn_produces_offline_nodes_and_pins_root(self):
        stream = ChurnStream(50, max_value=DOMAIN, seed=2, churn_rate=0.3)
        stream.initial()
        saw_offline = False
        for epoch in range(1, 10):
            updates = stream.step(epoch)
            assert 0 not in updates  # root never churns
            saw_offline = saw_offline or any(items == [] for items in updates.values())
        assert saw_offline

    def test_burst_is_quiet_between_bursts(self):
        stream = BurstStream(
            40, max_value=DOMAIN, seed=1, burst_period=10, burst_length=2
        )
        stream.initial()
        sizes = [len(stream.step(epoch)) for epoch in range(1, 21)]
        assert sizes.count(0) >= 14  # quiet most epochs
        assert max(sizes) >= 4  # but bursts move a subset

    def test_seasonal_moves_most_nodes_every_epoch(self):
        stream = SeasonalStream(30, max_value=DOMAIN, seed=4, period=12)
        stream.initial()
        sizes = [len(stream.step(epoch)) for epoch in range(1, 6)]
        assert min(sizes) > 15

    def test_churn_event_mode_mirrors_compat_mode(self):
        """One seed, two fault models: the same churn trajectory either way."""
        from repro.faults.events import NodeCrash, NodeRejoin

        compat = ChurnStream(40, max_value=DOMAIN, seed=9, churn_rate=0.3)
        explicit = ChurnStream(
            40, max_value=DOMAIN, seed=9, churn_rate=0.3, emit_events=True
        )
        assert compat.initial() == explicit.initial()
        assert explicit.pop_fault_events() == []  # nothing before a step
        for epoch in range(1, 8):
            compat_updates = compat.step(epoch)
            explicit_updates = explicit.step(epoch)
            events = explicit.pop_fault_events()
            # Event mode hands churned nodes to the fault engine instead of
            # returning silent item-list updates.
            assert explicit_updates == {}
            offline = {n for n, items in compat_updates.items() if items == []}
            rejoined = {n: items for n, items in compat_updates.items() if items}
            assert {e.node_id for e in events if isinstance(e, NodeCrash)} == offline
            assert {
                e.node_id: list(e.items)
                for e in events
                if isinstance(e, NodeRejoin)
            } == rejoined
            assert compat.online_count() == explicit.online_count()
        assert explicit.pop_fault_events() == []  # popping drains the buffer


# --------------------------------------------------------------------------- #
# Epoch convergecast
# --------------------------------------------------------------------------- #
class TestEpochConvergecast:
    def test_empty_dirty_set_costs_nothing(self):
        network = empty_network(9)
        before = network.ledger.snapshot()
        stats = epoch_convergecast(network, set(), lambda n, r: None)
        after = network.ledger.snapshot()
        assert stats.rounds == stats.activated == stats.transmissions == 0
        assert after.total_bits == before.total_bits
        assert after.rounds == before.rounds

    def test_single_dirty_leaf_activates_only_its_root_path(self):
        network = SensorNetwork.from_items(
            list(range(8)), topology=line_links(8)
        )
        leaf = 7
        activated = []

        def decide(node_id, received):
            activated.append(node_id)
            return ("payload", 8)

        stats = epoch_convergecast(network, {leaf}, decide)
        assert activated == list(network.tree.path_to_root(leaf))
        # Every activated node except the root transmits.
        assert stats.transmissions == len(activated) - 1
        assert network.ledger.total_bits == 8 * stats.transmissions

    def test_suppression_stops_propagation(self):
        network = SensorNetwork.from_items(
            list(range(8)), topology=line_links(8)
        )
        activated = []

        def decide(node_id, received):
            activated.append(node_id)
            return None  # always suppress

        stats = epoch_convergecast(network, {7}, decide)
        assert activated == [7]  # the parent never hears about it
        assert stats.transmissions == 0
        assert stats.suppressions == 1
        assert network.ledger.total_bits == 0


# --------------------------------------------------------------------------- #
# Engine registration
# --------------------------------------------------------------------------- #
class TestEngineRegistration:
    def test_duplicate_name_rejected(self):
        engine = standard_engine()
        with pytest.raises(ConfigurationError):
            engine.register("count", CountQuery())

    def test_advance_without_queries_rejected(self):
        engine = ContinuousQueryEngine(empty_network(9))
        with pytest.raises(ConfigurationError):
            engine.advance_epoch({})

    def test_registration_broadcast_is_charged(self):
        network = empty_network(9)
        engine = ContinuousQueryEngine(network)
        engine.register("count", CountQuery())
        label = "stream:count:register"
        assert network.ledger.per_protocol_bits().get(label, 0) > 0

    def test_answers_empty_before_first_epoch(self):
        engine = standard_engine()
        assert engine.answers() == {}
        assert engine.epoch == 0


# --------------------------------------------------------------------------- #
# Epoch advance and answer correctness
# --------------------------------------------------------------------------- #
class TestEpochAnswers:
    def _check_answers(self, engine, epsilon):
        items = engine.network.all_items()
        n = len(items)
        answers = engine.answers()
        assert abs(answers["count"] - n) <= max(1.0, epsilon * n)
        if n and answers["median"] is not None:
            budget = engine.queries()["median"].error_bound(epsilon, float(n))
            median_rank = rank(items, answers["median"]) + 0.5 * sum(
                1 for item in items if item == answers["median"]
            )
            assert abs(median_rank - n / 2.0) <= budget + 0.5

    def test_answers_track_drift(self):
        epsilon = 0.1
        engine = standard_engine(num_nodes=25, epsilon=epsilon)
        stream = DriftStream(25, max_value=DOMAIN, seed=5, drift_fraction=0.2)
        engine.advance_epoch(stream.initial())
        self._check_answers(engine, epsilon)
        for epoch in range(1, 12):
            engine.advance_epoch(stream.step(epoch))
            self._check_answers(engine, epsilon)

    def test_answers_track_churn(self):
        epsilon = 0.1
        engine = standard_engine(num_nodes=25, epsilon=epsilon)
        stream = ChurnStream(25, max_value=DOMAIN, seed=6, churn_rate=0.2)
        engine.advance_epoch(stream.initial())
        for epoch in range(1, 12):
            engine.advance_epoch(stream.step(epoch))
            self._check_answers(engine, epsilon)
            # COUNT must follow the shrinking/growing population exactly
            # (slack < 1 at this scale, so suppression cannot hide a change).
            assert engine.answers()["count"] == stream.online_count()

    def test_predicate_count_query(self):
        network = empty_network(16)
        engine = ContinuousQueryEngine(network, epsilon=0.0)
        engine.register(
            "low", PredicateCountQuery(lambda item: item < 100, description="x<100")
        )
        engine.advance_epoch({node: [node * 25] for node in range(16)})
        assert engine.answers()["low"] == 4  # 0, 25, 50, 75

    def test_readings_of_any_iterable_are_read_once_by_every_kernel(self, kernel_radio):
        """Lists and tuples are taken as they are; an iterator is
        materialised once, so the write and both count kernels see it."""
        answers = []
        for reading in ([60, 300], (60, 300), iter([60, 300])):
            network = empty_network(16)
            network.radio = kernel_radio
            engine = ContinuousQueryEngine(network, epsilon=0.0)
            engine.register("count", CountQuery())
            engine.register(
                "low", PredicateCountQuery(lambda item: item < 100, description="x<100")
            )
            updates = {node: [node * 25] for node in range(16)}
            updates[3] = reading
            engine.advance_epoch(updates)
            answers.append((engine.answers(), network.items_of(3)))
        assert answers == [({"count": 17, "low": 4}, [60, 300])] * 3

    def test_a_bad_batch_raises_and_writes_nothing(self):
        network = empty_network(16)
        engine = ContinuousQueryEngine(network, epsilon=0.0)
        engine.register("count", CountQuery())
        engine.advance_epoch({node: [node] for node in range(16)})
        for bad in ({2: (5, -1)}, {2: [5], 99: [1]}, {2: iter([5, 1.5])}):
            with pytest.raises(ConfigurationError):
                engine.advance_epoch(bad)
            assert network.items_of(2) == [2]
        assert engine.answers()["count"] == 16

    def test_distinct_count_query_sanity(self):
        network = empty_network(36)
        engine = ContinuousQueryEngine(network, epsilon=0.05)
        engine.register("distinct", DistinctCountQuery(num_registers=256, salt=1))
        engine.advance_epoch({node: [node] for node in range(36)})
        estimate = engine.answers()["distinct"]
        assert 36 * 0.5 <= estimate <= 36 * 1.5
        # Collapsing every reading onto one value must collapse the estimate.
        engine.advance_epoch({node: [7] for node in range(36)})
        assert engine.answers()["distinct"] <= 10

    def test_incremental_matches_recompute_with_zero_epsilon(self):
        stream_a = DriftStream(16, max_value=DOMAIN, seed=9, drift_fraction=0.3)
        stream_b = DriftStream(16, max_value=DOMAIN, seed=9, drift_fraction=0.3)
        incremental = ContinuousQueryEngine(empty_network(16), epsilon=0.0)
        naive = RecomputeEngine(empty_network(16))
        for engine in (incremental, naive):
            engine.register("count", CountQuery())
            engine.register(
                "median", MedianQuery(universe_size=DOMAIN + 1, compression=10_000)
            )
        incremental.advance_epoch(stream_a.initial())
        naive.advance_epoch(stream_b.initial())
        for epoch in range(1, 10):
            incremental.advance_epoch(stream_a.step(epoch))
            naive.advance_epoch(stream_b.step(epoch))
            # With ε = 0 and an uncompressed digest both engines see identical
            # summaries at the root.
            assert incremental.answers() == naive.answers()

    def test_duplicating_radio_does_not_corrupt_answers(self):
        network = empty_network(16)
        network.radio = DuplicatingRadio(duplicate_rate=1.0, seed=3)
        engine = ContinuousQueryEngine(network, epsilon=0.0)
        engine.register("count", CountQuery())
        engine.advance_epoch({node: [node] for node in range(16)})
        assert engine.answers()["count"] == 16


# --------------------------------------------------------------------------- #
# Delta suppression
# --------------------------------------------------------------------------- #
class TestDeltaSuppression:
    def test_unchanged_epoch_costs_zero_bits(self):
        engine = standard_engine(num_nodes=25)
        engine.advance_epoch({node: [node * 10] for node in range(25)})
        record = engine.advance_epoch({})  # nothing moved
        assert record.bits == 0
        assert record.messages == 0
        assert record.dirty_nodes == 0

    def test_identical_readings_are_not_dirty(self):
        engine = standard_engine(num_nodes=25)
        readings = {node: [node * 10] for node in range(25)}
        engine.advance_epoch(readings)
        record = engine.advance_epoch(readings)  # same values re-sensed
        assert record.bits == 0

    def test_single_change_touches_only_one_root_path(self):
        engine = standard_engine(num_nodes=25)
        engine.advance_epoch({node: [node * 10] for node in range(25)})
        record = engine.advance_epoch({24: [3000]})
        height = engine.network.tree.height
        queries = len(engine.queries())
        assert record.dirty_nodes == 1
        assert 0 < record.messages <= height * queries
        assert record.bits < engine.trace[0].bits / 4

    def test_first_epoch_ships_full_summaries_then_deltas(self):
        engine = standard_engine(num_nodes=25)
        stream = DriftStream(25, max_value=DOMAIN, seed=8, drift_fraction=0.1)
        run_stream(engine, stream, epochs=15)
        first = engine.trace[0].bits
        steady = engine.trace.steady_state_bits(warmup=1)
        assert steady < first / 3

    def test_suppression_reported_when_changes_are_small(self):
        # A generous epsilon and a large standing count let single-item
        # wobbles be suppressed outright.
        network = empty_network(9)
        engine = ContinuousQueryEngine(network, epsilon=0.9)
        engine.register("count", CountQuery())
        engine.advance_epoch({node: [5] * 10 for node in range(9)})
        record = engine.advance_epoch({8: [5] * 11})  # one extra item
        assert record.suppressions >= 1
        assert record.bits == 0


# --------------------------------------------------------------------------- #
# Incremental vs recompute and the trace
# --------------------------------------------------------------------------- #
class TestIncrementalSavings:
    def test_incremental_beats_recompute_on_drift(self):
        stream_a = DriftStream(36, max_value=DOMAIN, seed=11, drift_fraction=0.05)
        stream_b = DriftStream(36, max_value=DOMAIN, seed=11, drift_fraction=0.05)
        incremental = ContinuousQueryEngine(empty_network(36), epsilon=0.1)
        naive = RecomputeEngine(empty_network(36))
        for engine in (incremental, naive):
            engine.register("count", CountQuery())
            engine.register(
                "median", MedianQuery(universe_size=DOMAIN + 1, compression=256)
            )
            engine.register("distinct", DistinctCountQuery(num_registers=64, salt=2))
        run_stream(incremental, stream_a, epochs=20)
        run_stream(naive, stream_b, epochs=20)
        assert incremental.trace.total_bits * 3 < naive.trace.total_bits

    def test_trace_totals_are_sums_of_epochs(self):
        engine = standard_engine(num_nodes=16)
        stream = DriftStream(16, max_value=DOMAIN, seed=12)
        trace = run_stream(engine, stream, epochs=8)
        assert len(trace) == 8
        assert trace.total_bits == sum(record.bits for record in trace)
        assert trace.total_messages == sum(record.messages for record in trace)
        assert trace.total_energy_nj == pytest.approx(
            sum(record.energy_nj for record in trace)
        )
        assert trace.total_energy_nj > 0
        assert [record.epoch for record in trace] == list(range(8))

    def test_per_query_bits_partition_the_epoch_bits(self):
        engine = standard_engine(num_nodes=16)
        engine.advance_epoch({node: [node] for node in range(16)})
        record = engine.trace[0]
        assert sum(record.per_query_bits.values()) == record.bits


# --------------------------------------------------------------------------- #
# Summary primitives
# --------------------------------------------------------------------------- #
class TestSummaries:
    def test_count_summary_roundtrip(self):
        a, b = CountSummary(5), CountSummary(7)
        merged = a.merge(b)
        assert merged.count == 12
        assert merged.distance(a) == 7
        assert not merged.same_as(a)
        assert merged.delta_bits(a) < merged.serialized_bits() + 4

    def test_quantile_summary_distance_bounds_rank_shift(self):
        a = QuantileSummary.from_values([1, 2, 3], universe_size=16, compression=64)
        b = QuantileSummary.from_values([1, 2, 4], universe_size=16, compression=64)
        assert a.distance(b) >= 1  # one item moved
        assert a.same_as(a.merge(QuantileSummary.from_values([], 16)))

    def test_distinct_summary_merge_is_idempotent(self):
        a = DistinctSummary.from_values(range(50), num_registers=64, salt=3)
        merged = a.merge(a)
        assert merged.same_as(a)
        assert merged.distance(a) == 0.0
        assert a.delta_bits(a) < a.serialized_bits()
