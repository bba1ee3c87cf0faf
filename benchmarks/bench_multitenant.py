"""E14 — multi-tenant dedup: one shared plan vs Q independent engines.

The tenancy layer's claim is that total communication for Q overlapping
standing queries should grow with the number of *distinct aggregates*, not
the number of tenants.  This benchmark registers Q tenant queries drawn
from four signature families (COUNT / q-digest / distinct / COUNTP) on one
:class:`~repro.tenancy.MultiTenantEngine` and on Q dedicated
single-tenant engines over identically-seeded networks and streams, then
checks:

* the shared plan ships ≥ 5× fewer total bits than the Q independent
  engines (the acceptance criterion; with Q tenants over L legs the
  measured ratio is Q/L, well above the floor at the default sizes);
* every tenant's per-epoch answer is number-identical to its dedicated
  engine's — dedup changes *who pays*, never *what is answered*;
* the per-tenant ledger columns sum exactly to the shared plan's charged
  bits after every epoch (the decomposition invariant).

The acceptance size is n = 10,000, Q = 32; ``--smoke`` runs the same
assertions at the CI point (n = 256, Q = 24).
"""

from __future__ import annotations

import time

from benchmarks.conftest import (
    emit_bench_json,
    emit_telemetry_jsonl,
    phases_from_tracer,
    run_once,
)
from repro.analysis.experiments import run_multitenant_study
from repro.analysis.report import format_table
from repro.telemetry import SpanTracer

#: ``--smoke`` -> the (num_nodes, tenants, epochs) parameter set.
SIZES = {False: (10_000, 32, 6), True: (256, 24, 6)}
EPSILON = 0.1


def test_multitenant_shared_plan_vs_independent(benchmark, smoke):
    num_nodes, tenants, epochs = SIZES[smoke]
    started = time.perf_counter()
    # Instrument the shared arm: the bench JSON gains the per-phase
    # breakdown (epoch sweeps + tenant.split spans) and CI archives it.
    tracer = SpanTracer()
    measures = run_once(
        benchmark,
        run_multitenant_study,
        num_nodes=num_nodes,
        epochs=epochs,
        tenants=tenants,
        workload="drift",
        epsilon=EPSILON,
        seed=0,
        telemetry=tracer,
    ).measures

    rows = [
        ["tenant queries", measures["tenants"]],
        ["shared legs", measures["legs"]],
        ["shared plan bits", measures["shared_bits"]],
        ["independent bits", measures["independent_bits"]],
        ["savings factor", round(measures["savings_factor"], 2)],
        ["answers identical", measures["answers_match"]],
        ["decomposition exact", measures["decomposition_holds"]],
    ]
    print()
    print(format_table(
        ["measure", "value"],
        rows,
        title=(
            f"E14  multi-tenant dedup, drift workload "
            f"(N = {num_nodes}, Q = {tenants}, {epochs} epochs)"
        ),
    ))

    benchmark.extra_info["savings_factor"] = round(measures["savings_factor"], 2)
    for name in ("legs", "shared_bits", "independent_bits"):
        benchmark.extra_info[name] = measures[name]

    # Acceptance: Q overlapping queries cost ≥ 5× less than Q engines,
    # with no tenant able to tell the difference from its answers.
    assert measures["savings_factor"] >= 5.0
    assert measures["answers_match"]
    assert measures["decomposition_holds"]
    # The dedup itself: far fewer legs than tenants (four families here).
    assert measures["legs"] < measures["tenants"]

    emit_bench_json(
        "multitenant",
        n=num_nodes,
        wall_clock_s=time.perf_counter() - started,
        bits=measures["shared_bits"],
        metrics={
            "multitenant_savings": {
                "value": round(measures["savings_factor"], 2),
                "floor": 5.0,
            },
        },
        phases=phases_from_tracer(tracer),
    )
    emit_telemetry_jsonl("multitenant", tracer)
