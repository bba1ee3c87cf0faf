"""One repeat of one workload: build from the seed, warm up, time the ops.

This is what runs inside each fresh child interpreter (so peak RSS and GC
state never leak between repeats); the harness only orchestrates.  The
untraced pass installs nothing but the stream proxy.  The traced pass —
same inputs — adds the layer wrappers and the ground-truth sweep, and is
also the verify pass.

Epoch boundaries are taken from outside ``run_faulty_stream``: the stream
is wrapped in a forwarding proxy that stamps ``perf_counter()`` on every
``initial()``/``step()`` call, so epoch *k* runs from stamp *k* to stamp
*k + 1* and the last one ends when the runner returns.
"""

from __future__ import annotations

import gc
import resource
from time import perf_counter
from typing import Any

from repro.faults import run_faulty_stream
from repro.telemetry.records import json_safe

from benchmarks.perf import spec, tracing, verify, workloads


class StampedStream:
    """Forwarding stream proxy: one timestamp per epoch, nothing else.

    Just before the first timed epoch it collects garbage once (GC stays
    enabled afterwards) and notes the ledger totals, so the timed region's
    simulated cost is a plain difference.
    """

    def __init__(self, inner, ledger, recorder: tracing.SpanRecorder | None) -> None:
        self._inner = inner
        self._ledger = ledger
        self._recorder = recorder
        self._initial = inner.initial
        self._step = inner.step
        if recorder is not None:
            self._initial = recorder.wrap("workloads.stream_step", inner.initial)
            self._step = recorder.wrap("workloads.stream_step", inner.step)
        self.stamps: list[float] = []
        self.bits_at_start = 0
        self.messages_at_start = 0

    def initial(self):
        self.stamps.append(perf_counter())
        return self._initial()

    def step(self, epoch: int):
        if len(self.stamps) == spec.WARMUP_EPOCHS:
            gc.collect()
            self.bits_at_start = self._ledger.total_bits
            self.messages_at_start = self._ledger.total_messages
            if self._recorder is not None:
                self._recorder.reset_counts()
        self.stamps.append(perf_counter())
        return self._step(epoch)

    def __getattr__(self, name: str):
        # Optional stream hooks (``pop_fault_events``) exist only when the
        # wrapped stream has them.
        return getattr(self._inner, name)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(
    ops: list[tuple[float, float]],
    started: float,
    peak_rss_mb: float,
    bits: int,
    messages: int,
    max_node_bits: int,
    rows: list[dict],
    ledger: dict,
    worst: float,
    failed: list[int],
) -> dict:
    count = len(ops)
    return {
        "setup_s": ops[0][0] - started,
        "op_ms": [1000.0 * (end - start) for start, end in ops],
        "timed_s": sum(end - start for start, end in ops),
        "peak_rss_mb": peak_rss_mb,
        "messages": messages,
        "cost": {
            "bits_per_op": bits / count,
            "messages_per_op": messages / count,
            "max_node_bits": max_node_bits,
        },
        "answer_error_worst": worst,
        "failed_ops": failed,
        "rows": rows,
        "ledger": ledger,
    }


def run_stream(name: str, seed: int, smoke: bool, traced: bool, started: float) -> dict:
    case = workloads.build_stream(name, seed, smoke)
    recorder = tracing.SpanRecorder() if traced else None
    patcher = tracing.Patcher()
    proxy = StampedStream(case.stream, case.network.ledger, recorder)
    try:
        if traced:
            tracing.install_stream_spans(recorder, patcher, case)
        trace = run_faulty_stream(
            case.engine,
            proxy,
            case.faults,
            epochs=case.epochs,
            compute_truth=traced,
            telemetry=case.telemetry,
        )
        finished = perf_counter()
        peak_rss_mb = _peak_rss_mb()  # before the checks below allocate
    finally:
        patcher.restore()
    stamps = proxy.stamps + [finished]
    ops = list(zip(stamps[spec.WARMUP_EPOCHS : -1], stamps[spec.WARMUP_EPOCHS + 1 :]))
    rows = list(trace.to_dicts())
    ledger = case.network.ledger
    worst, failed = verify.score_stream(rows, case.engine.queries())
    result = _result(
        ops,
        started,
        peak_rss_mb,
        ledger.total_bits - proxy.bits_at_start,
        ledger.total_messages - proxy.messages_at_start,
        ledger.max_node_bits,
        rows,
        verify.ledger_fingerprint(ledger),
        worst,
        failed,
    )
    if traced:
        result["layers"] = recorder.per_op(ops)
        result["counters"] = {
            **_stream_counters(case, rows),
            **_send_batch_counters(recorder, result["layers"], len(ops)),
        }
    return result


def _stream_counters(case, rows: list[dict]) -> dict:
    """Counts taken at the same boundaries as the spans, over the timed ops."""
    timed = rows[spec.WARMUP_EPOCHS :]
    ops = len(timed)

    def total(column: str) -> float:
        return sum(row[column] for row in timed)

    sent = total("transmissions")
    held = total("suppressions")
    elections = sum(1 for row in timed if row["new_root"] is not None)
    planner = getattr(case.engine, "planner", None)
    telemetry = case.telemetry
    return {
        "streaming.suppression_ratio": held / (held + sent) if held + sent else 0.0,
        "streaming.dirty_per_op": total("dirty_nodes") / ops,
        "faults.detection.bits_share": total("detection_bits")
        / max(1, total("total_bits")),
        "faults.repair.reparented_per_op": total("reparented") / ops,
        "faults.repair.rebuilds": sum(1 for row in timed if row["rebuilt"]),
        "faults.election.bits_per_election": total("election_bits") / elections
        if elections
        else 0.0,
        "tenancy.legs": len(planner.legs()) if planner is not None else 0,
        "telemetry.spans_per_op": len(telemetry.spans) / len(rows)
        if telemetry is not None
        else 0.0,
    }


def _send_batch_counters(
    recorder: tracing.SpanRecorder, layers: dict, ops: int
) -> dict:
    calls = layers["network.send_batch"]["calls_per_op"] * ops
    links = recorder.counts["send_batch_links"]
    return {
        "network.send_batch.links_per_call": links / calls if calls else 0.0,
        # Charged transmissions per logical link: exactly 1 on perfect
        # links, above 1 by the radio's retries and duplicates.
        "network.radio.attempts_per_delivery": recorder.counts["send_batch_messages"]
        / links
        if links
        else 0.0,
    }


def run_oneshot(seed: int, smoke: bool, traced: bool, started: float) -> dict:
    case = workloads.build_oneshot(seed, smoke)
    network = case.network
    recorder = tracing.SpanRecorder() if traced else None
    patcher = tracing.Patcher()
    ops: list[tuple[float, float]] = []
    rows: list[dict] = []
    failed: list[int] = []
    worst = 0.0
    try:
        if traced:
            tracing.install_oneshot_spans(recorder, patcher, network)
        # Warm-up: fill the flat-tree link caches and the sketch hash tables.
        case.load_round(0)
        for query in case.round_queries(0):
            if query.label in ("APX_COUNT", "COUNT"):
                network.reset_ledger()
                query.protocol.run(network)
        gc.collect()
        if traced:
            recorder.reset_counts()
        for round_index in range(case.rounds):
            items = case.load_round(round_index)
            for query in case.round_queries(round_index):
                run = query.protocol.run
                if traced:
                    run = recorder.wrap(query.span, run)
                network.reset_ledger()
                start = perf_counter()
                outcome = run(network)
                ops.append((start, perf_counter()))
                ratio, bad = verify.score_query(query, outcome.value, items)
                worst = max(worst, ratio)
                if bad:
                    failed.append(len(rows))
                rows.append(
                    {
                        "query": query.label,
                        "answer": json_safe(outcome.value),
                        "total_bits": outcome.total_bits,
                        "messages": outcome.messages,
                        "max_node_bits": outcome.max_node_bits,
                        "rounds": outcome.rounds,
                    }
                )
    finally:
        patcher.restore()
    result = _result(
        ops,
        started,
        _peak_rss_mb(),
        sum(row["total_bits"] for row in rows),
        sum(row["messages"] for row in rows),
        max(row["max_node_bits"] for row in rows),
        rows,
        verify.ledger_fingerprint(network.ledger),
        worst,
        failed,
    )
    if traced:
        result["layers"] = recorder.per_op(ops)
        result["counters"] = _send_batch_counters(
            recorder, result["layers"], len(ops)
        )
    return result


def run_repeat(
    name: str, seed: int, smoke: bool, traced: bool, started: float
) -> dict[str, Any]:
    """Run one repeat of workload ``name``; ``started`` is the parent's
    ``perf_counter()`` at spawn, so set-up includes interpreter start-up."""
    if spec.workload(name).kind == "oneshot":
        return run_oneshot(seed, smoke, traced, started)
    return run_stream(name, seed, smoke, traced, started)
