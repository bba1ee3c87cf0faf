"""Correctness: answers against their guarantees, paths against per-edge.

Every op gets an *error ratio* — its error divided by what the protocol
guarantees — and a pass/fail.  A deterministic guarantee (exact protocols,
the ε-suppression slack, the q-digest rank bound) fails above ratio 1.  A
probabilistic one (sketch-based counts and medians, stated at 3σ) fails
only above ``PROBABILISTIC_FAIL_RATIO``: a seeded sketch that lands at 3.2σ
is the protocol working as specified, not a wrong program, and the
workloads must be ones on which no op fails for any seed.

The differential check runs a workload's own script on a small field under
``execution="per-edge"`` — the executable specification of the paper's cost
model — and under the workload's own execution mode, and demands identical
answers, per-epoch cost columns and final ledger.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

from repro.core import approximate_order_statistic_interval, is_order_statistic, rank
from repro.faults import run_faulty_stream

from benchmarks.perf import spec, workloads
from benchmarks.perf.harness import first_difference

PROBABILISTIC_FAIL_RATIO = 2.0
#: Ratio reported for a wrong answer where none is tolerated (finite, so the
#: result stays plain JSON).
WRONG = 1e9

IDENTITY = ("repair_bits", "query_bits", "detection_bits", "election_bits")


def _ratio(error: float, guarantee: float) -> float:
    if error <= 0:
        return 0.0
    return error / guarantee if guarantee > 0 else WRONG


# --------------------------------------------------------------------------- #
# Stream epochs
# --------------------------------------------------------------------------- #
def score_stream(
    records: list[dict], queries: dict[str, Any]
) -> tuple[float, list[int]]:
    """Worst error ratio and the failed epochs among the timed ones.

    ``records`` are ``FaultEpochRecord.to_dict()`` rows for every epoch.  An
    epoch fails when its cost columns break ``total == repair + query +
    detection + election`` or an answer exceeds its guarantee.  The
    guarantee is the query's own ``error_bound`` at the high-water mark of
    its scale (the engine sizes its slack the same way).  With recorded
    ``errors`` every query is scored; without (the untraced pass skips the
    O(n) truth sweep) only COUNT is, against the ``attached`` column —
    every attached sensor of these workloads holds exactly one reading.
    """
    worst = 0.0
    failed: list[int] = []
    high_water = {name: 0.0 for name in queries}
    attached_high = 0.0
    for record in records:
        epoch = record["epoch"]
        attached_high = max(attached_high, float(record["attached"]))
        ok = record["total_bits"] == sum(record[column] for column in IDENTITY)
        ratios = []
        for name, query in queries.items():
            answer = record["answers"].get(name)
            if answer is None:
                continue
            kind = query.kind
            by_items = kind in ("QUANTILE", "MEDIAN")
            scale = attached_high if by_items else float(answer)
            high_water[name] = max(high_water[name], scale)
            if name in record["errors"]:
                error = record["errors"][name]
            elif kind == "COUNT" and not record["truths"]:
                error = abs(float(answer) - record["attached"])
            else:
                continue
            ratio = _ratio(error, query.error_bound(spec.EPSILON, high_water[name]))
            limit = PROBABILISTIC_FAIL_RATIO if kind == "DISTINCT" else 1.0
            ok = ok and ratio <= limit
            ratios.append(ratio)
        if epoch < spec.WARMUP_EPOCHS:
            continue
        worst = max([worst] + ratios)
        if not ok:
            failed.append(epoch)
    return worst, failed


# --------------------------------------------------------------------------- #
# One-shot queries
# --------------------------------------------------------------------------- #
def _truth(which: str, items: list[int]) -> float:
    if which == "distinct":
        return len(set(items))
    if which == "min":
        return min(items)
    if which == "max":
        return max(items)
    if which == "count":
        return len(items)
    if which == "sum":
        return sum(items)
    return sum(items) / len(items)


def score_query(query: workloads.Query, value: Any, items: list[int]) -> tuple[float, bool]:
    """``(error ratio, failed)`` of one one-shot answer against ``items``."""
    n = len(items)
    kind = query.kind
    if kind == "order_statistic":
        answer = getattr(value, "median", None)
        if answer is None:
            answer = value.value
        good = is_order_statistic(items, query.params["quantile"] * n, answer)
        return (0.0, False) if good else (WRONG, True)
    if kind == "exact":
        truth = _truth(query.params["truth"], items)
        good = math.isclose(float(value), float(truth), rel_tol=1e-12)
        return (0.0, False) if good else (WRONG, True)
    if kind in ("apx_count", "apx_distinct"):
        truth = n if kind == "apx_count" else len(set(items))
        ratio = _ratio(
            abs(value.estimate - truth) / truth, 3.0 * value.relative_sigma
        )
    elif kind == "apx_median":
        # Rank test of Definition 2.4: how far the answer's rank sits from
        # N/2, as a share of N/2, against the protocol's own 3σ promise.
        target = n / 2.0
        ratio = _ratio(
            abs(rank(items, value.value) - target) / target, value.alpha_guarantee
        )
    else:  # apx_median2: an (α, β)-median — β·max away from the α-interval
        low, high = approximate_order_statistic_interval(
            items, n / 2.0, value.alpha_guarantee
        )
        outside = max(0.0, low - value.value, value.value - high)
        ratio = _ratio(outside, value.beta * max(items))
    return ratio, ratio > PROBABILISTIC_FAIL_RATIO


# --------------------------------------------------------------------------- #
# Comparing two passes
# --------------------------------------------------------------------------- #
def ledger_fingerprint(ledger) -> dict:
    """Scalars of ``ledger.snapshot()`` plus a digest of its per-node table."""
    snapshot = ledger.snapshot()
    digest = hashlib.sha256(
        repr(sorted(snapshot.per_node_bits.items())).encode()
    ).hexdigest()
    return {
        "total_bits": snapshot.total_bits,
        "max_node_bits": snapshot.max_node_bits,
        "messages": snapshot.messages,
        "rounds": snapshot.rounds,
        "per_protocol_bits": dict(sorted(snapshot.per_protocol_bits.items())),
        "per_node_sha256": digest,
    }


def differential(name: str, seed: int) -> str | None:
    """Run ``name``'s script small, per-edge against its own path.

    Returns a description of the first differing epoch/column, or ``None``
    when the optimised path reproduces the reference exactly.
    """
    sides = []
    for execution in ("per-edge", None):
        case = workloads.build_stream(
            name,
            seed,
            n=spec.DIFF_NODES,
            epochs=spec.DIFF_EPOCHS,
            execution=execution,
        )
        trace = run_faulty_stream(
            case.engine,
            case.stream,
            case.faults,
            epochs=case.epochs,
            compute_truth=False,
            telemetry=case.telemetry,
        )
        sides.append(
            (list(trace.to_dicts()), ledger_fingerprint(case.network.ledger))
        )
    (reference, reference_ledger), (own, own_ledger) = sides
    return first_difference(reference, own, reference_ledger, own_ledger)
