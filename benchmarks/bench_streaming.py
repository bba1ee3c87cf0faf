"""E10 — continuous queries: incremental maintenance vs per-epoch recompute.

The streaming engine's claim is that steady-state communication should be
proportional to *change*, not network size.  This benchmark drives the
incremental :class:`~repro.streaming.ContinuousQueryEngine` and the naive
:class:`~repro.streaming.RecomputeEngine` through the same slowly-drifting
100-node stream for 60 epochs, with the same four standing queries (COUNT,
MEDIAN, COUNT DISTINCT, COUNTP), and checks:

* the incremental engine ships ≥ 5× fewer total bits than recomputing every
  epoch from scratch (the acceptance criterion; measured well above that);
* every per-epoch incremental answer still meets the ε-approximation
  guarantee — COUNT within ε·N, MEDIAN within the suppression-slack plus
  q-digest rank budget;
* the steady-state epochs (everything after epoch 0's cache warm-up) are
  cheaper still, since epoch 0 necessarily ships full summaries.

The bench is already CI-sized: its ``--smoke`` parameter set equals the
full one.
"""

from __future__ import annotations

import time

from benchmarks.conftest import (
    emit_bench_json,
    emit_telemetry_jsonl,
    phases_from_tracer,
    run_once,
)
from repro.analysis.experiments import run_streaming_comparison
from repro.analysis.report import format_table
from repro.telemetry import SpanTracer

NUM_NODES = 100
EPOCHS = 60
EPSILON = 0.1


def test_streaming_incremental_vs_recompute(benchmark):
    started = time.perf_counter()
    # Instrument the incremental arm: the bench JSON gains the per-phase
    # wall-clock/bit breakdown and CI archives the span trace.
    tracer = SpanTracer()
    result = run_once(
        benchmark,
        run_streaming_comparison,
        num_nodes=NUM_NODES,
        epochs=EPOCHS,
        workload="drift",
        epsilon=EPSILON,
        seed=0,
        telemetry=tracer,
    )

    measures = result.measures
    incremental = result.traces["incremental"]
    naive = result.traces["recompute"]
    rows = [
        ["total bits", incremental.total_bits, naive.total_bits],
        ["total messages", incremental.total_messages, naive.total_messages],
        [
            "steady bits/epoch",
            round(incremental.steady_state_bits(warmup=1), 1),
            round(naive.steady_state_bits(warmup=1), 1),
        ],
        [
            "energy (mJ)",
            round(incremental.total_energy_nj / 1e6, 3),
            round(naive.total_energy_nj / 1e6, 3),
        ],
    ]
    print()
    print(format_table(
        ["measure", "incremental", "recompute"],
        rows,
        title=(
            f"E10  continuous queries, drift workload "
            f"(N = {NUM_NODES}, {EPOCHS} epochs, eps = {EPSILON})"
        ),
    ))

    benchmark.extra_info["savings_factor"] = round(measures["savings_factor"], 2)
    for name in (
        "incremental_bits",
        "recompute_bits",
        "max_count_error",
        "max_median_rank_error",
    ):
        benchmark.extra_info[name] = measures[name]

    # Acceptance: ≥ 5× fewer total bits, at the same approximation guarantee.
    assert measures["savings_factor"] >= 5.0
    assert measures["max_count_error"] <= measures["count_error_budget"]
    assert (
        measures["max_median_rank_error"]
        <= measures["median_rank_error_budget"] + 0.5
    )
    # Steady state is where the amortisation shows: epoch 0 ships full
    # summaries, later epochs only deltas from changed subtrees.
    assert incremental.steady_state_bits(warmup=1) < incremental[0].bits / 5
    # Both engines agree on what they are answering.
    assert incremental[-1].answers["count"] == naive[-1].answers["count"]

    emit_bench_json(
        "streaming",
        n=NUM_NODES,
        wall_clock_s=time.perf_counter() - started,
        bits=measures["incremental_bits"],
        metrics={
            "streaming_savings": {
                "value": round(measures["savings_factor"], 2),
                "floor": 5.0,
            },
        },
        phases=phases_from_tracer(tracer),
    )
    emit_telemetry_jsonl("streaming", tracer)


def test_streaming_savings_across_dynamics(benchmark):
    """Burst and churn also amortise; seasonal (dense change) still wins via deltas."""

    def sweep():
        return {
            workload: run_streaming_comparison(
                num_nodes=64,
                epochs=40,
                workload=workload,
                epsilon=EPSILON,
                seed=1,
            ).measures
            for workload in ("burst", "churn", "seasonal")
        }

    results = run_once(benchmark, sweep)
    rows = [
        [
            workload,
            measures["incremental_bits"],
            measures["recompute_bits"],
            round(measures["savings_factor"], 2),
            measures["max_count_error"],
        ]
        for workload, measures in results.items()
    ]
    print()
    print(format_table(
        ["workload", "incremental bits", "recompute bits", "savings", "count err"],
        rows,
        title="E10b  savings factor by stream dynamics (N = 64, 40 epochs)",
    ))
    for workload, measures in results.items():
        benchmark.extra_info[f"{workload}_savings"] = round(measures["savings_factor"], 2)
        assert measures["max_count_error"] <= max(1.0, measures["count_error_budget"])
    assert results["burst"]["savings_factor"] >= 5.0
    assert results["churn"]["savings_factor"] >= 5.0
    assert results["seasonal"]["savings_factor"] >= 1.1
