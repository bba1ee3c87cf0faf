"""Unified telemetry: span tracing, metrics, and JSONL export.

The paper's contribution is a *cost measure* — per-node communication
complexity — and this package is the repository's single instrumentation
substrate for observing it.  Three pieces:

* :mod:`repro.telemetry.recorder` — the :class:`TelemetryRecorder`
  protocol behind every profiling hook, and the :data:`NULL_RECORDER`
  default that makes instrumentation free when disabled;
* :mod:`repro.telemetry.spans` — the :class:`SpanTracer`: nested, timed
  spans around each phase of the epoch pipeline, with exact per-span
  ledger deltas metered through :class:`~repro.network.LedgerMark`;
* :mod:`repro.telemetry.metrics` — the :class:`MetricsRegistry` of
  counters/gauges/histograms with Prometheus-text and markdown renderers.

:mod:`repro.telemetry.export` handles JSONL files, and
:mod:`repro.telemetry.records` holds :class:`EpochRecordBase`, the shared
base of the streaming and fault per-epoch records.

The causal diagnosis layer builds on those three:

* :mod:`repro.telemetry.flight` — the :class:`FlightRecorder`: a bounded
  ring of structured causal events (``fault.injected`` → ``detect.miss``
  → ``election`` / ``repair.*`` → ``cache.evict`` …), each linked by
  ``cause_event_id``;
* :mod:`repro.telemetry.attribution` — :class:`CostAttribution`: per-node
  cumulative bits in one ``int64`` column, with each epoch's exact
  quantiles and top-k hotspots;
* :mod:`repro.telemetry.diagnose` — :func:`diagnose`: rolling median/MAD
  anomaly detection over the epoch series plus backwards causal-chain
  walks, rendered as "why" reports (CLI: ``scripts/diagnose.py``).

The epoch pipeline emits a stable span vocabulary: ``epoch`` wraps each
fault-runner step, with ``detect`` / ``election`` / ``repair`` / ``stream``
phases nested inside and one ``convergecast`` span per standing query.  The
vectorized paths reuse the same names (so phase tables line up across
execution modes) and add two of their own under ``stream``:
``shard.sweep`` (the fan-out of subtree slices to shard workers) and
``shard.merge`` (the single per-epoch fold of worker ledgers into the
network ledger).

Install a tracer on a network to light everything up::

    tracer = SpanTracer()
    network.telemetry = tracer          # binds the network's ledger
    trace = run_faulty_stream(engine, stream, faults, telemetry=tracer)
    tracer.write_jsonl("telemetry.jsonl")
    print(tracer.metrics.render_markdown())

The cardinal rule, enforced by the overhead-guard test: telemetry
*observes* the cost model and never charges a bit into it.
"""

from repro.telemetry.attribution import (
    CostAttribution,
    EpochAttribution,
)
from repro.telemetry.diagnose import (
    Anomaly,
    Diagnosis,
    build_series,
    diagnose,
    rolling_mad_anomalies,
    verdict,
)
from repro.telemetry.export import (
    dumps_line,
    load_jsonl,
    read_jsonl,
    split_by_type,
    write_jsonl,
)
from repro.telemetry.flight import (
    CONTEXT_KINDS,
    EVENT_KINDS,
    FlightEvent,
    FlightRecorder,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    HistogramState,
    MetricsRegistry,
)
from repro.telemetry.records import EpochRecordBase, TraceSerialization, json_safe
from repro.telemetry.recorder import (
    NULL_RECORDER,
    NULL_SPAN,
    NullRecorder,
    NullSpan,
    TelemetryRecorder,
    as_recorder,
)
from repro.telemetry.spans import Span, SpanTracer, phases_payload

__all__ = [
    "Anomaly",
    "CONTEXT_KINDS",
    "CostAttribution",
    "DEFAULT_BUCKETS",
    "Diagnosis",
    "EVENT_KINDS",
    "EpochAttribution",
    "EpochRecordBase",
    "FlightEvent",
    "FlightRecorder",
    "HistogramState",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NULL_SPAN",
    "NullRecorder",
    "NullSpan",
    "Span",
    "SpanTracer",
    "TelemetryRecorder",
    "TraceSerialization",
    "as_recorder",
    "build_series",
    "diagnose",
    "dumps_line",
    "json_safe",
    "load_jsonl",
    "phases_payload",
    "read_jsonl",
    "rolling_mad_anomalies",
    "split_by_type",
    "verdict",
    "write_jsonl",
]
