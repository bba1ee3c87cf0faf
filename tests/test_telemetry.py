"""Telemetry layer: null recorder, metrics registry, span reconciliation.

The load-bearing assertions are the *reconciliation* tests: summing span
``bits`` over one epoch's spans equals the ledger delta the
:class:`~repro.faults.FaultTrace` charged that epoch — on both execution
paths — and the per-phase spans reproduce the trace's accounting columns
exactly.  The overhead guard then shows the instrumentation costs nothing
when disabled: zero extra ledger bits, and a recorder-call count per epoch
that does not grow with the network (the wall-clock cost of watching is
sampled repeatedly by ``benchmarks/perf``, not asserted here).
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultEngine,
    HeartbeatDetector,
    RootElection,
    run_faulty_stream,
)
from repro.network.accounting import CommunicationLedger
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import CountQuery, MedianQuery
from repro.streaming.trace import EpochRecord
from repro.faults.trace import FaultEpochRecord
from repro.telemetry import (
    NULL_RECORDER,
    NULL_SPAN,
    MetricsRegistry,
    NullRecorder,
    SpanTracer,
    TelemetryRecorder,
    as_recorder,
    dumps_line,
    load_jsonl,
    read_jsonl,
    split_by_type,
    write_jsonl,
)
from repro.telemetry.recorder import flatten_labels
from repro.workloads.faults import crash_storm_script, root_failover_script
from repro.workloads.streams import DriftStream

DOMAIN = 1 << 12


def storm_setup(num_nodes=36, execution="batched", detector=True):
    """A small grid under a crash storm followed by a root crash."""
    network = SensorNetwork.from_items(
        [0] * num_nodes, topology="grid", execution=execution
    )
    network.clear_items()
    engine = ContinuousQueryEngine(network, epsilon=0.1)
    engine.register("count", CountQuery())
    engine.register("median", MedianQuery(universe_size=DOMAIN, compression=64))
    script = crash_storm_script(
        network.node_ids(),
        epoch=1,
        fraction=0.2,
        seed=0,
        rejoin_epoch=4,
        rejoin_value_max=DOMAIN - 1,
    ).merge(root_failover_script(network.node_ids(), crash_epoch=6))
    faults = FaultEngine(
        network,
        script=script,
        detector=HeartbeatDetector(period=2) if detector else None,
        election=RootElection(),
    )
    stream = DriftStream(num_nodes, max_value=DOMAIN, seed=3)
    return network, engine, stream, faults


class TestNullRecorder:
    def test_null_recorder_is_disabled_and_inert(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        recorder.bind_ledger(object())
        recorder.count("net.bits", 5, protocol="x")
        recorder.gauge("population.alive", 3)
        recorder.observe("epoch.bits", 1.5)

    def test_null_span_is_a_reusable_noop_context(self):
        recorder = NullRecorder()
        handle = recorder.span("epoch", epoch=3)
        assert handle is NULL_SPAN
        with handle as span:
            span.annotate(crashes=1)
        # Re-entrant: the shared singleton survives arbitrary reuse.
        with NULL_SPAN, NULL_SPAN:
            pass

    def test_as_recorder_mapping(self):
        assert as_recorder(None) is NULL_RECORDER
        tracer = SpanTracer()
        assert as_recorder(tracer) is tracer
        assert isinstance(NULL_RECORDER, TelemetryRecorder)

    def test_flatten_labels_sorts_and_stringifies(self):
        assert flatten_labels({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))
        assert flatten_labels({}) == ()


class TestMetricsRegistry:
    def test_counters_accumulate_per_label_set(self):
        registry = MetricsRegistry()
        registry.count("net.bits", 10, protocol="stream:count")
        registry.count("net.bits", 5, protocol="stream:count")
        registry.count("net.bits", 7, protocol="faults:repair")
        registry.count("sweeps")
        assert registry.counter_value("net.bits", protocol="stream:count") == 15
        assert registry.counter_value("net.bits", protocol="faults:repair") == 7
        assert registry.counter_value("sweeps") == 1
        assert registry.counter_value("never.touched") == 0
        series = registry.counter_series("net.bits")
        assert len(series) == 2

    def test_counters_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.count("net.bits", -1)

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.count("no spaces allowed")

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("population.alive", 36)
        registry.gauge("population.alive", 29)
        assert registry.gauge_value("population.alive") == 29
        assert registry.gauge_value("population.attached") is None

    def test_histogram_statistics_and_buckets(self):
        registry = MetricsRegistry()
        registry.declare_histogram("phase.wall_s", [0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 5.0, 50.0):
            registry.observe("phase.wall_s", value, phase="repair")
        state = registry.histogram("phase.wall_s", phase="repair")
        assert state.count == 4
        assert state.minimum == 0.05
        assert state.maximum == 50.0
        assert state.mean == pytest.approx(55.55 / 4)
        # Cumulative bucket counts: <=0.1 -> 1, <=1.0 -> 2, <=10.0 -> 3.
        assert state.counts == [1, 2, 3]

    def test_histogram_declared_after_observation_rejected(self):
        registry = MetricsRegistry()
        registry.observe("epoch.bits", 10)
        with pytest.raises(ConfigurationError):
            registry.declare_histogram("epoch.bits", [1.0])

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.count("net.bits", 12, protocol="stream:count")
        registry.gauge("population.alive", 29)
        registry.declare_histogram("phase.wall_s", [0.1, 1.0])
        registry.observe("phase.wall_s", 0.5, phase="detect")
        text = registry.render_prometheus()
        assert "# TYPE repro_net_bits counter" in text
        assert 'repro_net_bits{protocol="stream:count"} 12' in text
        assert "# TYPE repro_population_alive gauge" in text
        assert 'repro_phase_wall_s_bucket{phase="detect",le="1"} 1' in text
        assert 'repro_phase_wall_s_bucket{phase="detect",le="+Inf"} 1' in text
        assert 'repro_phase_wall_s_count{phase="detect"} 1' in text

    def test_markdown_rendering(self):
        registry = MetricsRegistry()
        registry.count("net.bits", 12, protocol="stream:count")
        registry.observe("answer.error", 2.0, query="count")
        text = registry.render_markdown()
        assert "| `net.bits` | protocol=stream:count | 12 |" in text
        assert "`answer.error`" in text
        assert MetricsRegistry().render_markdown() == "(no metrics recorded)\n"

    def test_to_dict_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.count("net.bits", 12, protocol="x")
        registry.gauge("population.alive", 3)
        registry.observe("epoch.bits", 100)
        line = dumps_line(registry.to_dict())
        assert '"net.bits"' in line and '"population.alive"' in line


class TestSpanTracer:
    def test_spans_meter_ledger_deltas_inclusively(self):
        ledger = CommunicationLedger()
        tracer = SpanTracer(ledger=ledger)
        with tracer.span("epoch", epoch=0) as epoch:
            ledger.charge(1, 2, 100, protocol="stream:count")
            with tracer.span("repair") as repair:
                ledger.charge(2, 3, 40, protocol="faults:repair")
            ledger.charge(3, 4, 10, protocol="stream:count")
        assert repair.bits == 40
        assert epoch.bits == 150
        assert epoch.exclusive_bits == 110
        assert epoch.children == 1
        assert epoch.messages == 3 and repair.messages == 1

    def test_out_of_order_close_rejected(self):
        tracer = SpanTracer()
        outer = tracer.span("epoch")
        inner = tracer.span("repair")
        with pytest.raises(ConfigurationError):
            outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)

    def test_rebind_with_open_spans_rejected(self):
        ledger = CommunicationLedger()
        tracer = SpanTracer(ledger=ledger)
        tracer.bind_ledger(ledger)  # same ledger: no-op
        with tracer.span("epoch"):
            with pytest.raises(ConfigurationError):
                tracer.bind_ledger(CommunicationLedger())

    def test_failed_spans_are_flagged(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("repair"):
                raise RuntimeError("boom")
        assert tracer.spans[-1].failed is True
        assert tracer.phase_summary()["repair"]["count"] == 1

    def test_span_queries_and_phase_summary(self):
        ledger = CommunicationLedger()
        tracer = SpanTracer(ledger=ledger)
        with tracer.span("epoch") as epoch:
            with tracer.span("stream"):
                with tracer.span("convergecast"):
                    ledger.charge(1, 2, 8)
        assert [s.name for s in tracer.spans] == ["convergecast", "stream", "epoch"]
        assert len(tracer.spans_named("epoch")) == 1
        subtree = tracer.subtree_of(epoch)
        assert {s.name for s in subtree} == {"epoch", "stream", "convergecast"}
        assert sum(s.exclusive_bits for s in subtree) == epoch.bits == 8
        summary = tracer.phase_summary()
        assert summary["convergecast"]["bits"] == 8
        assert summary["epoch"]["exclusive_bits"] == 0

    def test_tracer_without_ledger_still_times(self):
        tracer = SpanTracer()
        with tracer.span("epoch") as span:
            pass
        assert span.bits == 0
        assert span.wall_s >= 0.0


class TestJsonl:
    def test_write_and_read_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [{"type": "span", "name": "epoch"}, {"type": "metrics", "m": 1}]
        assert write_jsonl(path, records) == 2
        assert load_jsonl(path) == records
        buckets = split_by_type(read_jsonl(path))
        assert [r["name"] for r in buckets["span"]] == ["epoch"]
        assert len(buckets["metrics"]) == 1
        assert split_by_type([{"no": "type"}])["unknown"] == [{"no": "type"}]

    @pytest.mark.parametrize("bad", ['{"type": "spa', "[1, 2]", "7"])
    def test_a_malformed_line_raises_a_named_error(self, tmp_path, bad):
        from repro.exceptions import TraceFormatError

        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span"}\n\n' + bad + "\n")
        with pytest.raises(TraceFormatError, match=rf"{path} line 3 ") as caught:
            load_jsonl(path)
        assert isinstance(caught.value, ValueError)

    def test_tracer_jsonl_is_self_describing(self, tmp_path):
        ledger = CommunicationLedger()
        tracer = SpanTracer(ledger=ledger)
        with tracer.span("epoch", epoch=0):
            ledger.charge(1, 2, 16, protocol="stream:count")
        path = tmp_path / "trace.jsonl"
        lines = tracer.write_jsonl(path)
        assert lines == len(tracer.spans) + 1  # spans + one metrics line
        buckets = split_by_type(read_jsonl(path))
        span = buckets["span"][0]
        assert span["name"] == "epoch" and span["bits"] == 16
        assert "exclusive_bits" in span
        assert buckets["metrics"][0]["metrics"]["counters"]

    def test_epoch_records_serialize_with_type_tags(self):
        streaming = EpochRecord(
            epoch=0, messages=1, rounds=2, energy_nj=0.5,
            dirty_nodes=3, transmissions=4, suppressions=5, bits=60,
        )
        faulty = FaultEpochRecord(
            epoch=1, messages=0, rounds=0, energy_nj=0.0,
            dirty_nodes=0, transmissions=0, suppressions=0,
        )
        assert streaming.to_dict()["type"] == "epoch"
        assert streaming.to_dict()["bits"] == 60
        assert faulty.to_dict()["type"] == "fault_epoch"
        line = dumps_line(streaming.to_dict())
        assert '"type": "epoch"' not in line  # compact separators
        assert '"epoch":0' in line.replace(" ", "")


@pytest.mark.parametrize("execution", ["batched", "per-edge"])
class TestReconciliation:
    """Span bits == ledger epoch deltas, on both execution paths."""

    def test_epoch_spans_reconcile_with_the_fault_trace(self, execution):
        network, engine, stream, faults = storm_setup(execution=execution)
        tracer = SpanTracer()
        trace = run_faulty_stream(
            engine, stream, faults, epochs=8, telemetry=tracer
        )
        epochs = tracer.spans_named("epoch")
        assert len(epochs) == len(trace) == 8
        for span, record in zip(epochs, trace):
            assert span.attributes["epoch"] == record.epoch
            # The acceptance criterion: span bits over one epoch equal the
            # ledger delta the trace charged for that epoch.
            assert span.bits == record.total_bits
            assert span.messages == record.messages
            # The epoch span does nothing outside its phase children.
            assert span.exclusive_bits == 0
            subtree = tracer.subtree_of(span)
            assert sum(s.exclusive_bits for s in subtree) == span.bits

    def test_phase_spans_reproduce_the_accounting_columns(self, execution):
        network, engine, stream, faults = storm_setup(execution=execution)
        tracer = SpanTracer()
        trace = run_faulty_stream(
            engine, stream, faults, epochs=8, telemetry=tracer
        )
        assert sum(
            s.bits for s in tracer.spans_named("detect")
        ) == trace.total_detection_bits
        assert sum(
            s.bits for s in tracer.spans_named("election")
        ) == trace.total_election_bits > 0  # the root crash forced one
        # The election runs nested inside the repair pass, so repair's
        # *exclusive* bits are the trace's repair column.
        assert sum(
            s.exclusive_bits for s in tracer.spans_named("repair")
        ) == trace.total_repair_bits
        assert sum(
            s.bits for s in tracer.spans_named("stream")
        ) == trace.total_query_bits
        # ledger.bits counters carry the same split by protocol key.
        assert tracer.metrics.counter_value(
            "ledger.bits", protocol="faults:heartbeat"
        ) == trace.total_detection_bits
        assert tracer.metrics.counter_value(
            "ledger.bits", protocol="faults:election"
        ) == trace.total_election_bits

    def test_instrumented_run_charges_identical_bits(self, execution):
        _, engine, stream, faults = storm_setup(execution=execution)
        baseline = run_faulty_stream(engine, stream, faults, epochs=8)
        _, engine2, stream2, faults2 = storm_setup(execution=execution)
        traced = run_faulty_stream(
            engine2, stream2, faults2, epochs=8, telemetry=SpanTracer()
        )
        assert [r.total_bits for r in traced] == [r.total_bits for r in baseline]
        assert [r.answers for r in traced] == [r.answers for r in baseline]


class TestOverheadGuard:
    """With the null recorder, instrumentation must be free."""

    NUM_NODES = 10_000
    EPOCHS = 2

    def big_setup(self, num_nodes):
        network = SensorNetwork.from_items([0] * num_nodes, topology="grid")
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.1)
        engine.register("count", CountQuery())
        script = crash_storm_script(
            network.node_ids(), epoch=1, fraction=0.05, seed=0
        )
        faults = FaultEngine(network, script=script)
        stream = DriftStream(num_nodes, seed=0)
        return engine, stream, faults

    def run_once(self, telemetry, num_nodes=NUM_NODES):
        engine, stream, faults = self.big_setup(num_nodes)
        trace = run_faulty_stream(
            engine,
            stream,
            faults,
            epochs=self.EPOCHS,
            compute_truth=False,
            telemetry=telemetry,
        )
        return trace.total_bits, engine.network.ledger.total_bits

    @pytest.mark.slow
    def test_null_recorder_charges_zero_extra_bits(self):
        default_bits, default_ledger = self.run_once(None)
        null_bits, null_ledger = self.run_once(NullRecorder())
        traced_bits, traced_ledger = self.run_once(SpanTracer())
        assert default_bits == null_bits == traced_bits
        assert default_ledger == null_ledger == traced_ledger

    def test_disabled_recorder_calls_do_not_grow_with_the_network(
        self, counting_recorder
    ):
        """Telemetry off costs O(phases) recorder calls per epoch, not O(n).

        The deterministic form of the old "within 5% wall-clock" ratio,
        which flaked under load: a disabled recorder is reached only by the
        per-phase ``span()`` calls — the same number at n = 100 and at
        n = 2,500 — every per-message hook stays behind its ``enabled``
        gate, and the spans it hands out are the shared no-op.
        """
        small, large = counting_recorder(), counting_recorder()
        self.run_once(small, num_nodes=100)
        self.run_once(large, num_nodes=2_500)
        assert small.calls == large.calls
        assert small.gated_calls == 0
        # A handful of phase spans per epoch (epoch ▸ repair, stream ▸
        # convergecast), plus the one ledger binding.
        assert 0 < sum(small.calls.values()) <= 1 + 5 * self.EPOCHS
