"""Causal diagnosis layer: flight recorder, cost attribution, diagnosis.

The load-bearing assertions mirror the layer's three promises:

* **attribution reconciles** — an epoch's summed per-node bit deltas equal
  exactly twice the epoch span's ledger delta (every charged bit touches a
  sender and a receiver), on the batched, vectorized and `VectorField`
  paths, crash epochs included;
* **diagnosis names the fault** — on a seeded storm, the flagged epochs
  are the scripted fault epochs (within detection latency) and at least
  90% of the causal chains root at the injected ``fault.injected`` event;
* **observing stays free** — with the flight recorder *and* attribution
  enabled at n = 100k the run charges zero extra bits, a disabled recorder
  carrying both sinks is reached by a per-epoch call count that does not
  grow with n while the sinks stay empty, and at n = 1M the attribution
  sink holds one int64 column of n entries plus O(k) per epoch.  The wall-clock
  cost of watching is a measured layer of ``benchmarks/perf``, not a ratio
  asserted here.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    NodeCrash,
    RootCrash,
    RootElection,
    run_faulty_stream,
)
from repro.network.accounting import CommunicationLedger
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import CountQuery, MedianQuery
from repro.telemetry import (
    CONTEXT_KINDS,
    EVENT_KINDS,
    CostAttribution,
    FlightRecorder,
    NullRecorder,
    SpanTracer,
    diagnose,
    dumps_line,
    read_jsonl,
    rolling_mad_anomalies,
    split_by_type,
    verdict,
)

from ledger_oracle import RetiredDictFolds

DOMAIN = 1 << 12

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    """Import a scripts/*.py CLI module by path (scripts is not a package)."""
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def storm_setup(num_nodes=36, execution="batched"):
    """A grid with crashes at epoch 3 and a root crash at epoch 6.

    The faults sit past the detector's ``min_history`` so the MAD detector
    is *allowed* to flag them — a storm at epoch 1 has no baseline yet.
    """
    network = SensorNetwork.from_items(
        [0] * num_nodes, topology="grid", execution=execution
    )
    network.clear_items()
    engine = ContinuousQueryEngine(network, epsilon=0.1)
    engine.register("count", CountQuery())
    if execution == "batched":
        engine.register(
            "median", MedianQuery(universe_size=DOMAIN, compression=64)
        )
    script = FaultScript(
        {3: [NodeCrash(7), NodeCrash(8)], 6: [RootCrash()]}
    )
    faults = FaultEngine(
        network,
        script=script,
        detector=HeartbeatDetector(period=2),
        election=RootElection(),
    )
    from repro.workloads.streams import DriftStream

    stream = DriftStream(num_nodes, max_value=DOMAIN, seed=3)
    return network, engine, stream, faults


def storm_run(execution="batched", epochs=12, **tracer_kwargs):
    tracer_kwargs.setdefault("flight", FlightRecorder())
    tracer_kwargs.setdefault("attribution", CostAttribution())
    network, engine, stream, faults = storm_setup(execution=execution)
    tracer = SpanTracer(**tracer_kwargs)
    trace = run_faulty_stream(
        engine, stream, faults, epochs=epochs, telemetry=tracer
    )
    if hasattr(engine, "close"):
        engine.close()
    return network, tracer, trace


class TestFlightRecorder:
    def test_ring_bounds_and_monotonic_ids(self):
        flight = FlightRecorder(capacity=4)
        for epoch in range(6):
            flight.record("cache.evict", epoch=epoch, node=epoch)
        assert len(flight) == 4
        assert flight.dropped == 2
        # Ids keep counting across drops: the survivors are events 3..6.
        assert [event.event_id for event in flight.events] == [3, 4, 5, 6]
        assert [event.epoch for event in flight.events] == [2, 3, 4, 5]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)

    def test_context_cause_inheritance(self):
        flight = FlightRecorder()
        fault = flight.record("fault.injected", epoch=0, node=7, fault="NodeCrash")
        miss = flight.record("detect.miss", epoch=0, node=7, cause=fault)
        evict = flight.record("cache.evict", epoch=0, node=3)
        # The eviction inherited the most recent context kind (the miss).
        assert flight.events[-1].cause_event_id == miss
        assert flight.events[1].cause_event_id == fault
        # Injections are causal roots: they never inherit the context.
        root = flight.record("fault.injected", epoch=0, node=9, fault="NodeCrash")
        assert flight.events[-1].cause_event_id is None
        # A new epoch resets the context entirely.
        flight.new_epoch()
        orphan = flight.record("cache.evict", epoch=1, node=4)
        assert flight.events[-1].cause_event_id is None
        assert {e.event_id for e in flight.events_of("fault.injected")} == {
            fault, root
        }
        assert evict != orphan

    def test_event_dicts_are_json_safe(self):
        flight = FlightRecorder()
        flight.record("election", epoch=2, node=5, old_root=0, participants=9)
        (record,) = list(flight.iter_dicts())
        assert record["type"] == "event"
        assert record["kind"] == "election"
        assert record["attributes"]["old_root"] == 0
        dumps_line(record)  # must not raise

    def test_taxonomy_is_closed(self):
        assert set(CONTEXT_KINDS) <= set(EVENT_KINDS)

    def test_tracer_event_carries_span_and_epoch_context(self):
        ledger = CommunicationLedger()
        tracer = SpanTracer(ledger=ledger, flight=FlightRecorder())
        with tracer.span("epoch", epoch=5) as span:
            with tracer.span("repair"):
                tracer.event("repair.adoption", node=3, adopter=1)
        (event,) = tracer.flight.events
        assert event.epoch == 5  # inherited from the enclosing epoch span
        assert event.parent_span_id is not None
        assert event.parent_span_id != span.span_id  # the repair span
        # Without a flight recorder, event() is an inert None.
        bare = SpanTracer()
        assert bare.event("cache.evict", node=1) is None


def delta_grid(touched):
    """Seeded per-node delta dicts of ``touched`` nodes, as a dict ledger
    reports them: tie-heavy, wide (above ``BINCOUNT_LIMIT``) and huge (past
    2**30) values; ids ``0..~4n/3``; inserted highest id first or shuffled;
    one zero delta, which every fold skips.
    """
    rng = np.random.default_rng(touched)
    id_space = touched + touched // 3 + 1
    ids = rng.choice(id_space, touched + 1, replace=False)
    for high in (4, 1 << 20, 1 << 40):
        bits = rng.integers(1, high, touched, endpoint=True)
        pairs = list(zip(ids[1:].tolist(), bits.tolist()))
        for order in ("descending", "shuffled"):
            if order == "descending":
                pairs.sort(reverse=True)
            else:
                rng.shuffle(pairs)
            yield id_space, {int(ids[0]): 0, **dict(pairs)}


class TestCostAttribution:
    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            CostAttribution(top_k=0)

    def test_dense_fold_from_an_unsized_ledger(self):
        ledger = CommunicationLedger()
        sink = CostAttribution(top_k=2)
        mark = ledger.mark()
        ledger.charge(1, 2, 100, protocol="stream:count")
        ledger.charge(2, 3, 40, protocol="faults:repair")
        sink.observe(0, ledger, mark)
        (record,) = sink.epochs
        # Sender + receiver: every charged bit lands on two nodes.
        assert record.node_bits == 2 * 140
        assert record.touched == 3
        assert record.hotspots == [(2, 140), (1, 100)]
        assert record.quantiles["max"] == 140
        assert sink.top_hotspot(0) == (2, 140, 140 / 280)
        assert sink.epoch_record(1) is None

    @pytest.mark.parametrize("touched", [1, 3, 17, 4095, 4096, 10_000])
    def test_one_fold_matches_the_retired_dict_folds(self, touched):
        """The fold of a delta column reports what the retired heap/sort and
        numpy dict folds did with the same deltas, cumulative bits included."""
        for id_space, deltas in delta_grid(touched):
            column = np.zeros(id_space, dtype=np.int64)
            column[list(deltas)] = list(deltas.values())
            for top_k in (1, 8, 12_000):
                sink, oracle = CostAttribution(top_k=top_k), RetiredDictFolds(top_k=top_k)
                sink._fold_array(0, column)
                oracle._fold_dict(0, deltas)
                assert sink.epochs[0].to_dict() == oracle.epochs[0].to_dict()
                assert nonzero_entries(sink.cumulative) == oracle.cumulative

    def test_ties_at_the_cutoff_go_to_the_lowest_ids_in_every_fold(self):
        """More bits first, then the lowest node id — in the fold and in the
        retired dict fold, whatever order the ledger touched the nodes in."""
        # Node 7 stands out; forty nodes tie at 16 bits, highest id touched first.
        deltas = {7: 64, **{node: 16 for node in range(59, 19, -1)}}
        dict_sink = RetiredDictFolds(top_k=4)
        dict_sink._fold_dict(0, deltas)
        column = np.zeros(64, dtype=np.int64)
        column[list(deltas)] = list(deltas.values())
        array_sink = CostAttribution(top_k=4)
        array_sink._fold_array(0, column)
        for sink in (dict_sink, array_sink):
            assert sink.epochs[0].hotspots == [(7, 64), (20, 16), (21, 16), (22, 16)]

    def test_a_quarter_million_node_fold_matches_the_dict_folds(self):
        """At n = 250,000 the fold reports what the dict folds do — hotspots,
        exact quantiles, summed bits and cumulative bits — over epochs on
        the bincount, the introselect and the small-dict paths."""
        num_nodes = 250_000
        ledger = CommunicationLedger(num_nodes)
        sink, oracle = CostAttribution(top_k=8), RetiredDictFolds(top_k=8)
        rng = np.random.default_rng(40)
        for epoch, (touched, high) in enumerate(
            [(12_500, 400), (12_500, 1 << 20), (1_000, 64)]
        ):
            mark = ledger.mark()
            senders = rng.choice(num_nodes, touched, replace=False)
            receivers = rng.integers(0, num_nodes, touched)
            ledger.charge_array(
                senders, receivers, rng.integers(1, high, touched), protocol="stream:count"
            )
            sink.observe(epoch, ledger, mark)
            oracle.observe(epoch, ledger, mark)
            ledger.release(mark)
        assert list(sink.iter_dicts()) == list(oracle.iter_dicts())
        assert sink.cumulative.size == num_nodes
        assert nonzero_entries(sink.cumulative) == oracle.cumulative
        assert int(sink.cumulative.sum()) == 2 * ledger.total_bits

    @pytest.mark.parametrize("num_nodes", [20_000, 1_000_000])
    def test_quantiles_are_the_exact_rank_statistics(self, num_nodes):
        """1,000 touched nodes whose largest delta is 399: ``max`` is 399 and
        p50 / p90 / p99 are the sorted deltas at ranks 500 / 900 / 990."""
        rng = np.random.default_rng(399)
        bits = 1 + np.arange(1_000) * 398 // 999
        column = np.zeros(num_nodes, dtype=np.int64)
        column[rng.choice(num_nodes, 1_000, replace=False)] = rng.permutation(bits)
        sink = CostAttribution()
        sink._fold_array(0, column)
        (record,) = sink.epochs
        ordered = np.sort(bits).tolist()
        assert (ordered[500], ordered[900], ordered[990]) == (200, 359, 395)
        assert record.quantiles == {"p50": 200, "p90": 359, "p99": 395, "max": 399}
        assert record.touched == 1_000 and record.node_bits == int(bits.sum())


def nonzero_entries(cumulative):
    """A cumulative column as the dict fold keeps it: touched nodes only."""
    return {node: bits for node, bits in enumerate(cumulative.tolist()) if bits}


class TestDetector:
    def test_flags_only_upward_spikes(self):
        series = {e: 100.0 for e in range(8)}
        series[5] = 3000.0
        series[6] = 1.0  # cheap epochs are good news, not anomalies
        flagged = rolling_mad_anomalies(series)
        assert [epoch for epoch, *_ in flagged] == [5]
        epoch, value, baseline, deviation = flagged[0]
        assert value == 3000.0 and baseline == 100.0 and deviation > 4

    def test_needs_min_history(self):
        # A spike at epoch 1 has no baseline to be anomalous against.
        assert rolling_mad_anomalies({0: 1.0, 1: 1000.0, 2: 1.0}) == []

    def test_periodic_heartbeat_parity_does_not_flag(self):
        # 64/0 alternation (a period-2 detector) must read as steady state,
        # even after a real spike widens the window's spread.
        series = {e: (64.0 if e % 2 == 0 else 0.0) for e in range(12)}
        series[5] = 5000.0
        flagged = rolling_mad_anomalies(series)
        assert [epoch for epoch, *_ in flagged] == [5]


class TestStormDiagnosis:
    """End-to-end on the batched path: spans + events + attribution."""

    def test_attribution_reconciles_with_epoch_spans(self):
        _, tracer, trace = storm_run()
        epochs = tracer.spans_named("epoch")
        assert len(tracer.attribution.epochs) == len(epochs) == len(trace)
        for span in epochs:
            record = tracer.attribution.epoch_record(span.attributes["epoch"])
            assert record.node_bits == 2 * span.bits
            if span.bits:
                assert record.touched > 0
                assert record.hotspots[0][1] == record.quantiles["max"]

    def test_flags_fault_epochs_and_names_the_injection(self):
        """The acceptance criterion: scripted faults get flagged and named.

        Crashes at epoch 3 (heartbeat period 2 -> paid for at epoch 4) and
        a root crash at epoch 6; at least 90% of the flagged epochs must
        chain back to a ``fault.injected`` root.
        """
        _, tracer, _ = storm_run()
        diagnosis = diagnose(list(tracer.iter_dicts()))
        flagged = {a.epoch for a in diagnosis.anomalies}
        assert flagged, "the storm must register as anomalous"
        # Every flag sits on a scripted fault epoch or inside detection
        # latency of one (crash at 3 detected at 4; root crash at 6).
        assert flagged <= {3, 4, 6}
        assert 6 in flagged  # the election epoch is the loudest
        assert not diagnosis.unattributed
        rooted = [
            a for a in diagnosis.anomalies
            if a.root_cause is not None
            and a.root_cause.get("kind") == "fault.injected"
        ]
        assert len(rooted) >= 0.9 * len(diagnosis.anomalies)
        summary = verdict(diagnosis)
        assert summary["unattributed"] == 0
        assert summary["root_cause_kinds"].get("fault.injected", 0) == len(rooted)
        # The rendered report names the faults in plain words.
        report = diagnosis.render()
        assert "RootCrash" in report
        assert "heartbeat miss" in report
        assert diagnosis.worst().attributed

    def test_detection_chain_links_miss_to_its_crash(self):
        _, tracer, _ = storm_run()
        flight = tracer.flight
        injections = {
            e.event_id: e for e in flight.events_of("fault.injected")
        }
        misses = flight.events_of("detect.miss")
        assert misses, "the heartbeat detector must report the crashes"
        for miss in misses:
            cause = injections.get(miss.cause_event_id)
            assert cause is not None
            assert cause.node == miss.node  # the miss names its crash
            assert miss.attributes["latency"] == miss.epoch - cause.epoch

    def test_jsonl_round_trip_preserves_the_diagnosis(self, tmp_path):
        _, tracer, _ = storm_run()
        path = tmp_path / "TELEMETRY_storm.jsonl"
        tracer.write_jsonl(path)
        records = list(read_jsonl(path))
        buckets = split_by_type(records)
        assert buckets["event"] and buckets["attribution"]
        assert len(buckets["attribution"]) == 12
        assert verdict(diagnose(records)) == verdict(
            diagnose(list(tracer.iter_dicts()))
        )

    def test_instrumented_run_charges_identical_bits(self):
        """The cardinal rule: flight + attribution never charge a bit."""
        _, _, traced = storm_run()
        network, engine, stream, faults = storm_setup()
        baseline = run_faulty_stream(engine, stream, faults, epochs=12)
        assert [r.total_bits for r in traced] == [
            r.total_bits for r in baseline
        ]


class TestVectorizedReconciliation:
    """Satellite: the causal layer on the numpy execution paths."""

    def test_column_sweep_spans_reconcile_through_a_crash(self):
        network = SensorNetwork.from_items([0] * 64, topology="grid")
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.1)
        engine.register("count", CountQuery())
        script = FaultScript({3: [NodeCrash(7), NodeCrash(21)]})
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=2)
        )
        from repro.workloads.streams import DriftStream

        stream = DriftStream(64, max_value=DOMAIN, seed=3)
        tracer = SpanTracer(
            flight=FlightRecorder(), attribution=CostAttribution()
        )
        trace = run_faulty_stream(
            engine, stream, faults, epochs=8, telemetry=tracer
        )
        engine.close()
        epochs = tracer.spans_named("epoch")
        assert len(epochs) == 8
        for span, record in zip(epochs, trace):
            assert span.bits == record.total_bits
            subtree = tracer.subtree_of(span)
            assert sum(s.exclusive_bits for s in subtree) == span.bits
            attributed = tracer.attribution.epoch_record(
                span.attributes["epoch"]
            )
            assert attributed.node_bits == 2 * span.bits
        assert tracer.flight.events_of("fault.injected")
        assert tracer.flight.events_of("detect.miss")

    def test_sharded_sweep_spans_carry_per_shard_breakdown(self):
        network = SensorNetwork.from_items(
            [0] * 64, topology="grid", execution="sharded"
        )
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.1, shard_processes=0)
        engine.register("count", CountQuery())
        tracer = SpanTracer()
        network.telemetry = tracer
        engine.advance_epoch({node: [1, 2] for node in range(0, 64, 3)})
        engine.close()
        sweeps = tracer.spans_named("shard.sweep")
        assert sweeps
        for span in sweeps:
            nodes = span.attributes["shard_nodes"]
            assert nodes and all(int(count) > 0 for count in nodes.values())
            assert set(span.attributes["shard_bits"]) == set(nodes)
            assert span.attributes["dispatched"] == len(nodes)
        merges = tracer.spans_named("shard.merge")
        assert merges and all(
            s.attributes["shards"] >= 1 for s in merges if s.attributes
        )

    def test_vector_field_crash_epoch_reconciles(self):
        from repro.network.vector_field import VectorField

        tracer = SpanTracer(
            flight=FlightRecorder(), attribution=CostAttribution()
        )
        field = VectorField.balanced(512, branching=4, telemetry=tracer)
        field.register_count_query("count")
        rng = np.random.default_rng(11)
        field.advance_epoch(
            changed_positions=np.arange(512),
            new_counts=rng.integers(0, 50, 512),
        )
        for epoch in range(1, 6):
            if epoch == 3:
                field.crash(rng.choice(np.arange(1, 512), 25, replace=False))
            changed = rng.choice(512, 40, replace=False)
            field.advance_epoch(
                changed_positions=changed,
                new_counts=rng.integers(0, 50, 40),
            )
        epochs = tracer.spans_named("epoch")
        assert len(epochs) == len(field.records) == 6
        for span, record in zip(epochs, field.records):
            assert span.attributes["epoch"] == record["epoch"]
            assert span.bits == record["bits"]
            attributed = tracer.attribution.epoch_record(record["epoch"])
            assert attributed.node_bits == 2 * span.bits
        # The storm epoch carries its aggregate injection event, and the
        # engine recorded the detached-cache eviction it caused.
        (injection,) = tracer.flight.events_of("fault.injected")
        assert injection.attributes["count"] == 25
        diagnosis = diagnose(list(tracer.iter_dicts()))
        for anomaly in diagnosis.anomalies:
            assert anomaly.attributed

    @pytest.mark.slow
    def test_million_node_attribution_keeps_one_column(self):
        """The memory bound at 1M nodes: one int64 column of n entries, and
        per epoch at most ``top_k`` hotspots and 4 quantiles."""
        from repro.network.vector_field import VectorField

        num_nodes = 1_000_000
        sink = CostAttribution(top_k=8)
        tracer = SpanTracer(attribution=sink)
        field = VectorField.balanced(num_nodes, telemetry=tracer)
        field.register_count_query("count")
        rng = np.random.default_rng(5)
        field.advance_epoch(
            changed_positions=np.arange(num_nodes),
            new_counts=rng.integers(0, 50, num_nodes),
        )
        churn = rng.choice(num_nodes, 10_000, replace=False)
        field.advance_epoch(
            changed_positions=churn,
            new_counts=rng.integers(0, 50, 10_000),
        )
        assert sink.cumulative.dtype == np.int64
        assert sink.cumulative.shape == (num_nodes,)
        assert len(sink.epochs) == 2
        for record in sink.epochs:
            assert record.touched > 0
            assert len(record.hotspots) <= 8
            assert len(record.quantiles) == 4


class TestOverheadGuard:
    """Flight + attribution enabled must observe for free at n = 100k."""

    EPOCHS = 4
    VECTOR_NODES = 100_000

    def run_pipeline(self, telemetry, num_nodes):
        """One crash-under-heartbeats run of the full array fault pipeline."""
        from repro.workloads.streams import DriftStream

        network = SensorNetwork.from_items([0] * num_nodes, topology="grid")
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.1)
        engine.register("count", CountQuery())
        script = FaultScript({2: [NodeCrash(7), NodeCrash(21)]})
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=2)
        )
        stream = DriftStream(num_nodes, max_value=DOMAIN, seed=3)
        run_faulty_stream(
            engine, stream, faults, epochs=self.EPOCHS, telemetry=telemetry
        )
        engine.close()
        return network.ledger.total_bits

    def run_vector_field(self, telemetry):
        """One pure-kernel VectorField run at exactly 100k nodes."""
        from repro.network.vector_field import VectorField

        rng = np.random.default_rng(9)
        field = VectorField.balanced(self.VECTOR_NODES, telemetry=telemetry)
        field.register_count_query("count")
        field.advance_epoch(
            changed_positions=np.arange(self.VECTOR_NODES),
            new_counts=rng.integers(0, 50, self.VECTOR_NODES),
        )
        for epoch in range(1, self.EPOCHS):
            if epoch == 2:
                field.crash(
                    rng.choice(
                        np.arange(1, self.VECTOR_NODES), 500, replace=False
                    )
                )
            churn = rng.choice(self.VECTOR_NODES, 1_000, replace=False)
            field.advance_epoch(
                changed_positions=churn,
                new_counts=rng.integers(0, 50, 1_000),
            )
        return field.ledger.total_bits

    def instrumented(self):
        return SpanTracer(
            flight=FlightRecorder(), attribution=CostAttribution()
        )

    @pytest.mark.slow
    def test_causal_layer_charges_zero_extra_bits(self):
        null_bits = self.run_vector_field(NullRecorder())
        traced_bits = self.run_vector_field(self.instrumented())
        assert traced_bits == null_bits

    def test_disabled_causal_layer_does_no_work_that_grows_with_n(
        self, counting_recorder
    ):
        """Flight + attribution behind a disabled recorder cost O(phases).

        The deterministic form of the old "within 10% wall-clock" ratio,
        which flaked under load: through the whole array fault pipeline
        (heartbeats, two crashes, repair, column sweep) a disabled
        recorder is reached by the same per-phase calls at n = 100 and
        n = 2,500, no gated hook fires, and neither sink sees an event or
        an attribution fold — while the charged bits match a traced run.
        """
        recorders = {}
        for num_nodes in (100, 2_500):
            recorder = counting_recorder(
                flight=FlightRecorder(), attribution=CostAttribution()
            )
            off_bits = self.run_pipeline(recorder, num_nodes)
            assert off_bits == self.run_pipeline(self.instrumented(), num_nodes)
            assert len(recorder.flight) == 0
            assert recorder.attribution.epochs == []
            assert recorder.gated_calls == 0
            recorders[num_nodes] = recorder
        assert recorders[100].calls == recorders[2_500].calls
        assert 0 < sum(recorders[100].calls.values()) <= 1 + 6 * self.EPOCHS


class TestCliExitCodes:
    """scripts/diagnose.py and scripts/telemetry_report.py fail loudly."""

    def write_storm_trace(self, tmp_path):
        _, tracer, _ = storm_run()
        path = tmp_path / "TELEMETRY_storm.jsonl"
        tracer.write_jsonl(path)
        return path

    def test_diagnose_happy_path_and_strict(self, tmp_path, capsys):
        cli = load_script("diagnose")
        path = self.write_storm_trace(tmp_path)
        assert cli.main([str(path)]) == 0
        assert "crash" in capsys.readouterr().out.lower()
        assert cli.main([str(path), "--strict"]) == 0
        capsys.readouterr()
        assert cli.main([str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["unattributed"] == 0
        assert summary["anomalous_epochs"]

    def test_diagnose_strict_fails_on_unexplained_spike(self, tmp_path, capsys):
        cli = load_script("diagnose")
        path = tmp_path / "TELEMETRY_mystery.jsonl"
        spans = [
            {
                "type": "span",
                "name": "epoch",
                "attributes": {"epoch": epoch},
                "bits": 5000 if epoch == 5 else 100,
            }
            for epoch in range(8)
        ]
        path.write_text("".join(dumps_line(s) + "\n" for s in spans))
        assert cli.main([str(path), "--strict"]) == 1
        captured = capsys.readouterr()
        assert "no attributable cause chain" in captured.out
        assert "strict" in captured.err

    def test_diagnose_rejects_missing_empty_and_truncated(self, tmp_path):
        cli = load_script("diagnose")
        assert cli.main([str(tmp_path / "nope.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main([str(empty)]) == 2
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text('{"type": "span", "name": "epo')
        assert cli.main([str(truncated)]) == 2

    def test_report_rejects_missing_empty_and_truncated(self, tmp_path, capsys):
        cli = load_script("telemetry_report")
        assert cli.main([str(tmp_path / "nope.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main([str(empty)]) == 2
        assert "empty" in capsys.readouterr().err
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(
            '{"type": "span", "name": "epoch", "bits": 5}\n{"type": "spa'
        )
        assert cli.main([str(truncated)]) == 2
        assert "truncated" in capsys.readouterr().err
        spanless = tmp_path / "spanless.jsonl"
        spanless.write_text('{"type": "event", "kind": "election"}\n')
        assert cli.main([str(spanless)]) == 1

    @pytest.mark.parametrize("script", ["diagnose", "telemetry_report"])
    def test_malformed_line_exits_2_naming_its_file_line(self, tmp_path, capsys, script):
        """A truncated last line and a non-object line both exit 2 (not the
        ``--strict`` code 1) and name the 1-based line of the file."""
        cli = load_script(script)
        span = '{"type": "span", "name": "epoch", "bits": 5}\n'
        for name, text, line in (
            ("truncated", span + '{"type": "spa', 2),
            ("array", span + "\n" + span + "[1, 2]\n", 4),
        ):
            path = tmp_path / f"{name}.jsonl"
            path.write_text(text)
            assert cli.main([str(path)]) == 2
            assert f"{path} line {line} " in capsys.readouterr().err

    def test_report_renders_instrumented_trace(self, tmp_path, capsys):
        cli = load_script("telemetry_report")
        path = self.write_storm_trace(tmp_path)
        assert cli.main([str(path)]) == 0
        assert "Phase dashboard" in capsys.readouterr().out
