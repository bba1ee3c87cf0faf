"""Drive a continuous-query engine through a stream *and* a fault schedule.

:func:`run_faulty_stream` is the per-epoch loop of the resilient stack:

1. pull this epoch's reading updates from the stream (and any explicit
   node-offline/online events the stream emits, e.g. a
   :class:`~repro.workloads.ChurnStream` in event mode);
2. let the :class:`~repro.faults.FaultEngine` apply fault events, run the
   heartbeat sweep of its failure detector (when one is charged) and repair
   the spanning tree — including, after a
   :class:`~repro.faults.RootCrash`, a charged
   :class:`~repro.faults.RootElection` and re-rooting at the winner —
   charging control traffic to the shared ledger;
3. feed the outcome to the query engine's recovery protocols
   (:meth:`~repro.streaming.ContinuousQueryEngine.apply_root_change` for a
   fail-over's reversed root path, then
   :meth:`~repro.streaming.ContinuousQueryEngine.apply_repair`), so only
   summaries along repaired paths are re-synchronised;
4. advance the query epoch with the updates that can still reach the root,
   and record everything — repair bits vs. query bits, population counts,
   and answer error against the *attached* ground truth — in a
   :class:`~repro.faults.FaultTrace`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.engine import FaultEngine
from repro.faults.trace import FaultEpochRecord, FaultTrace
from repro.telemetry.recorder import TelemetryRecorder


def _truth_and_error(
    query: Any, answer: Any, items: list[int]
) -> tuple[float, float] | None:
    """Ground truth and absolute answer error for one standing query.

    Dispatches on the query's ``kind`` tag so the faults package stays
    decoupled from concrete query classes; unknown kinds are skipped.
    Quantile answers are scored by *rank* error (distance of the answer's
    rank from the target rank, in items), matching the error bounds the
    streaming engine reports.  An empty attached multiset still scores the
    counting kinds (truth 0, error = the stale answer's magnitude) — only
    quantiles, whose truth is undefined on empty data, are skipped.
    """
    if answer is None:
        return None
    kind = getattr(query, "kind", None)
    if kind == "COUNT":
        truth = float(len(items))
        return truth, abs(float(answer) - truth)
    if kind == "COUNTP":
        truth = float(sum(1 for item in items if query.predicate(item)))
        return truth, abs(float(answer) - truth)
    if kind in ("QUANTILE", "MEDIAN"):
        if not items:
            return None
        target = query.fraction * len(items)
        below = sum(1 for item in items if item < answer)
        ties = sum(1 for item in items if item == answer)
        achieved = below + 0.5 * ties
        return target, abs(achieved - target)
    if kind == "DISTINCT":
        truth = float(len(set(items)))
        return truth, abs(float(answer) - truth)
    return None


def run_faulty_stream(
    engine,
    stream,
    faults: FaultEngine,
    epochs: int,
    compute_truth: bool = True,
    telemetry: TelemetryRecorder | None = None,
) -> FaultTrace:
    """Run ``engine`` for ``epochs`` epochs of ``stream`` under ``faults``.

    ``engine`` is a :class:`~repro.streaming.ContinuousQueryEngine` (or
    anything exposing ``advance_epoch`` / ``apply_repair`` / ``queries`` /
    ``network`` / ``energy_model``) with its standing queries already
    registered.  Epoch 0 applies the stream's initial assignment.  Returns
    the :class:`FaultTrace`; the engine's own
    :class:`~repro.streaming.StreamingTrace` keeps accumulating as usual.

    ``compute_truth`` controls the per-epoch ground-truth sweep (it reads
    every attached node's items, which is the one O(n)-per-epoch step);
    disable it for pure cost measurements at large scale.

    ``telemetry`` installs a recorder (normally a
    :class:`~repro.telemetry.SpanTracer`) on the engine's network for the
    run: every epoch then emits one ``epoch`` span with the
    ``detect`` / ``election`` / ``repair`` / ``stream`` phase spans nested
    inside it, plus the answer-error, detection-latency and per-ledger-key
    bit metrics.  The recorder stays installed after the run so its trace
    can be exported; assign ``network.telemetry = None`` to switch it off.
    """
    if epochs <= 0:
        raise ConfigurationError(f"epochs must be positive, got {epochs}")
    network = engine.network
    if faults.network is not network:
        raise ConfigurationError(
            "the fault engine and the query engine must share one network"
        )
    if telemetry is not None:
        network.telemetry = telemetry
    recorder = network.telemetry
    trace = FaultTrace()
    energy = engine.energy_model
    per_bit_nj = (
        energy.transmit_nj_per_bit
        + energy.amplifier_nj_per_bit
        + energy.receive_nj_per_bit
    )
    for epoch in range(epochs):
        updates = stream.initial() if epoch == 0 else stream.step(epoch)
        pop_events = getattr(stream, "pop_fault_events", None)
        extra_events = pop_events() if pop_events is not None else ()

        epoch_span = recorder.span("epoch", epoch=epoch)
        with epoch_span:
            before = network.ledger.counters_snapshot()
            report = faults.step(epoch, extra_events=extra_events)
            election = report.election
            if election is not None:
                # Root fail-over: migrate the caches along the reversed root
                # path first, then let the ordinary repair recovery handle the
                # re-attached fragments.
                engine.apply_root_change(election)
            engine.apply_repair(report.repair)
            mid = network.ledger.counters_snapshot()

            flat = network.flat_tree
            # The update targets the tree spans, one array lookup.
            ids = np.fromiter(updates, dtype=np.int64, count=len(updates))
            spanned = flat.positions_of(ids) >= 0
            # Crashed-but-undetected nodes still sit in the tree, but their
            # sensors are gone: a zombie reads nothing, so its updates vanish
            # (its stale cached summary lingering at the root is exactly the
            # answer-error cost of the detection window).
            undetected = getattr(faults, "undetected_dead", frozenset())
            if spanned.all() and not any(node_id in updates for node_id in undetected):
                reachable_updates = updates  # nothing to filter: no copy
            else:
                reachable_updates = {
                    node_id: items
                    for (node_id, items), kept in zip(updates.items(), spanned.tolist())
                    if kept and node_id not in undetected
                }
            # A flap (crash + rejoin inside one detection window) leaves the
            # tree untouched but replaced the node's readings wholesale;
            # surface it as this epoch's update so the stale pre-crash summary
            # is re-synchronised instead of being served forever.
            flaps = np.array(report.flapped, dtype=np.int64)
            flapped = flaps[flat.positions_of(flaps) >= 0].tolist()
            if flapped and reachable_updates is updates:
                reachable_updates = dict(updates)
            for node_id in flapped:
                reachable_updates[node_id] = network.items_of(node_id)
            record = engine.advance_epoch(reachable_updates)
            after = network.ledger.counters_snapshot()

        # Heartbeats and election traffic were charged inside faults.step;
        # keep them (bits and message counts both) out of the repair column
        # so the four cost streams stay separable:
        # total == repair + query + detection + election, every epoch.
        election_bits = election.election_bits if election is not None else 0
        election_messages = (
            election.election_messages if election is not None else 0
        )
        repair_bits = (
            mid.total_bits
            - before.total_bits
            - report.detection_bits
            - election_bits
        )
        repair_messages = (
            mid.messages
            - before.messages
            - report.detection_messages
            - election_messages
        )
        repair_rounds = mid.rounds - before.rounds
        repair_energy_nj = (
            (repair_bits + report.detection_bits + election_bits) * per_bit_nj
            + energy.idle_nj_per_round * repair_rounds * network.num_nodes
        )
        truths: dict[str, float] = {}
        errors: dict[str, float] = {}
        if compute_truth:
            items = network.attached_items()
            for name, query in engine.queries().items():
                scored = _truth_and_error(query, record.answers.get(name), items)
                if scored is not None:
                    truths[name], errors[name] = scored
        trace.append(
            FaultEpochRecord(
                epoch=epoch,
                crashes=len(report.crashed),
                rejoins=len(report.rejoined),
                link_drops=len(report.dropped_links),
                link_restores=len(report.restored_links),
                reparented=len(report.repair.parent_changed),
                rebuilt=report.repair.rebuilt,
                detached=len(report.repair.detached),
                alive=network.num_alive,
                attached=flat.num_nodes,
                repair_bits=repair_bits,
                repair_messages=repair_messages,
                query_bits=record.bits,
                total_bits=after.total_bits - before.total_bits,
                messages=after.messages - before.messages,
                rounds=after.rounds - before.rounds,
                energy_nj=record.energy_nj + repair_energy_nj,
                dirty_nodes=record.dirty_nodes,
                transmissions=record.transmissions,
                suppressions=record.suppressions,
                answers=dict(record.answers),
                truths=truths,
                errors=errors,
                detection_bits=report.detection_bits,
                detected=len(report.detected),
                detection_latency=(
                    sum(report.detection_latencies) / len(report.detected)
                    if report.detected
                    else 0.0
                ),
                election_bits=election_bits,
                new_root=(
                    election.new_root if election is not None else None
                ),
            )
        )
        if recorder.enabled:
            latest = trace.records[-1]
            epoch_span.annotate(
                crashes=latest.crashes,
                rejoins=latest.rejoins,
                rebuilt=latest.rebuilt,
                alive=latest.alive,
                attached=latest.attached,
            )
            recorder.observe("epoch.bits", latest.total_bits)
            recorder.gauge("population.alive", latest.alive)
            recorder.gauge("population.attached", latest.attached)
            for name, error in latest.errors.items():
                recorder.observe("answer.error", error, query=name)
            if latest.detected:
                recorder.observe(
                    "detect.latency_epochs", latest.detection_latency
                )
            for key, bits in after.per_protocol_bits.items():
                delta = bits - before.per_protocol_bits.get(key, 0)
                if delta:
                    recorder.count("ledger.bits", delta, protocol=key)
            # A delta burst: this epoch's query traffic jumped far above
            # its trailing median — worth a causal breadcrumb even when no
            # fault fired this epoch (a late detection often pays here).
            history = [r.query_bits for r in trace.records[-6:-1]]
            if len(history) >= 3:
                history.sort()
                baseline = history[len(history) // 2]
                if latest.query_bits > max(4 * baseline, baseline + 64):
                    recorder.event(
                        "delta.burst",
                        epoch=epoch,
                        query_bits=latest.query_bits,
                        baseline=baseline,
                    )
    return trace
