"""E11 — execution-path scaling: the batched core vs the per-edge reference.

The batched execution core exists so the simulator can run production-scale
fields: the per-edge path allocates a ``Message``, consults the graph, walks
the radio model and mutates the ledger once per edge, which caps experiments
at a few thousand nodes.  This benchmark drives the same broadcast + SUM
convergecast round trip through both paths and checks the two claims of the
refactor:

* **equivalence** — wherever both paths run, their ledgers are bit-for-bit
  identical (the ``ledgers_identical`` measure);
* **speed** — the batched path is ≥ 5× faster in wall-clock at n = 10,000,
  and completes a 100k-node field (where the per-edge path is not even
  attempted).

The sizes are the ``e11_scaling`` sweep spec's ``n`` axis: 1k / 10k / 100k,
or 256 / 1024 under ``--smoke`` — which still asserts ledger equivalence
but skips the wall-clock assertions (timing on shared runners is noise).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import (
    emit_bench_json,
    emit_telemetry_jsonl,
    phases_from_tracer,
    run_once,
)
from repro.analysis.experiments import run_scaling_study
from repro.analysis.report import format_table
from repro.network.simulator import SensorNetwork
from repro.sweeps import get_sweep
from repro.telemetry import SpanTracer

SPEEDUP_TARGET = 5.0
SPEEDUP_AT = 10_000


def test_batched_backend_scales(benchmark, smoke):
    spec = get_sweep("e11_scaling", smoke=smoke)
    sizes = spec.axes["n"]
    # The one-shot protocols emit no phase spans, but the tracer still
    # collects the per-size timing histograms and net.* counters.
    tracer = SpanTracer()

    def sweep():
        return [
            run_scaling_study(num_nodes=num_nodes, telemetry=tracer, **spec.base)
            for num_nodes in sizes
        ]

    results = run_once(benchmark, sweep)

    rows = []
    for result in results:
        measures, timing = result.measures, result.timing
        rows.append([
            measures["num_nodes"],
            measures["tree_height"],
            round(timing["batched_seconds"] * 1000, 1),
            "-" if timing["per_edge_seconds"] is None
            else round(timing["per_edge_seconds"] * 1000, 1),
            "-" if timing["speedup"] is None else round(timing["speedup"], 1),
            "-" if measures["ledgers_identical"] is None
            else measures["ledgers_identical"],
            measures["messages"],
        ])
    print()
    print(format_table(
        [
            "N",
            "tree height",
            "batched (ms)",
            "per-edge (ms)",
            "speedup",
            "ledgers equal",
            "messages",
        ],
        rows,
        title="E11  broadcast + SUM convergecast: batched vs per-edge execution",
    ))

    for result in results:
        num_nodes = result.measures["num_nodes"]
        benchmark.extra_info[f"batched_ms_{num_nodes}"] = round(
            result.timing["batched_seconds"] * 1000, 2
        )
        if result.timing["speedup"] is not None:
            benchmark.extra_info[f"speedup_{num_nodes}"] = round(
                result.timing["speedup"], 2
            )

    # Equivalence: wherever both paths ran, the ledgers must be identical.
    compared = [
        result.measures["ledgers_identical"]
        for result in results
        if result.measures["ledgers_identical"] is not None
    ]
    assert compared, "no size was small enough to run the per-edge reference"
    assert all(compared)
    # Every requested size completed under the batched backend.
    assert len(results) == len(sizes)

    metrics = {}
    if not smoke:
        # Acceptance: ≥ 5× wall-clock speedup on the 10k-node convergecast...
        ten_k = [
            result.timing["speedup"]
            for result in results
            if result.measures["num_nodes"] >= SPEEDUP_AT
            and result.timing["speedup"] is not None
        ]
        assert ten_k, f"sweep did not include a timed size ≥ {SPEEDUP_AT}"
        best_speedup = max(ten_k)
        assert best_speedup >= SPEEDUP_TARGET
        # ...and the 100k-node field completes on the batched path.
        assert max(result.measures["num_nodes"] for result in results) >= 99_000
        metrics["traversal_speedup"] = {
            "value": round(best_speedup, 2),
            "floor": SPEEDUP_TARGET,
        }

    largest = results[-1]
    emit_bench_json(
        "scale",
        n=largest.measures["num_nodes"],
        wall_clock_s=largest.timing["batched_seconds"],
        bits=largest.measures["total_bits"],
        metrics=metrics,
        phases=phases_from_tracer(tracer) or None,
    )
    if tracer.spans:
        emit_telemetry_jsonl("scale", tracer)


# --------------------------------------------------------------------------- #
# Vectorized core: the million-node epoch
# --------------------------------------------------------------------------- #
MILLION = 1_000_000
#: ``--smoke`` -> field size of the vectorized epoch.
VECTORIZED_N = {False: MILLION, True: 1024}
EPOCH_BUDGET_SECONDS = 1.0
STEADY_EPOCHS = 5
CHURN_FRACTION = 0.01


def test_vectorized_million_node_epoch(benchmark, smoke):
    """A 1M-node fused epoch (detect + repair + convergecast) under 1 s.

    The steady-state epoch is the quantity the paper's continuous-monitoring
    regime pays every round: a full heartbeat sweep over all alive edges, the
    attach-mask repair sweep, and the change-driven convergecast over ~1% of
    the field.  All three phases run as whole-array level passes on the
    :class:`~repro.network.VectorField`, so the epoch cost is a handful of
    numpy passes — not a million Python callbacks.
    """
    pytest.importorskip("numpy", reason="the vectorized core needs the fast extra")
    import numpy as np

    from repro.network import VectorField

    num_nodes = VECTORIZED_N[smoke]
    tracer = SpanTracer()
    field = VectorField.balanced(num_nodes, branching=8, telemetry=tracer)
    field.register_count_query("count")
    rng = np.random.default_rng(0)
    field.advance_epoch(
        changed_positions=np.arange(num_nodes),
        new_counts=rng.integers(0, 50, num_nodes),
    )

    churn = max(1, int(num_nodes * CHURN_FRACTION))

    def steady_epochs():
        for _ in range(STEADY_EPOCHS):
            changed = rng.choice(num_nodes, churn, replace=False)
            field.advance_epoch(
                changed_positions=changed,
                new_counts=rng.integers(0, 50, churn),
            )

    started = time.perf_counter()
    run_once(benchmark, steady_epochs)
    per_epoch = (time.perf_counter() - started) / STEADY_EPOCHS

    total_bits = sum(record["bits"] for record in field.records[1:])
    print()
    print(format_table(
        ["N", "epoch (ms)", "dirty/epoch", "tx/epoch", "bits/epoch"],
        [[
            num_nodes,
            round(per_epoch * 1000, 1),
            round(sum(r["dirty"] for r in field.records[1:]) / STEADY_EPOCHS),
            round(sum(r["transmissions"] for r in field.records[1:]) / STEADY_EPOCHS),
            round(total_bits / STEADY_EPOCHS),
        ]],
        title="E12  vectorized fused epoch: detect + repair + stream",
    ))
    benchmark.extra_info["vectorized_epoch_ms"] = round(per_epoch * 1000, 2)

    metrics = {}
    if not smoke:
        assert per_epoch < EPOCH_BUDGET_SECONDS, (
            f"1M-node epoch took {per_epoch:.3f}s (budget {EPOCH_BUDGET_SECONDS}s)"
        )
        metrics["vectorized_epochs_per_second"] = {
            "value": round(1.0 / per_epoch, 2),
            "floor": 1.0 / EPOCH_BUDGET_SECONDS,
        }

    emit_bench_json(
        "scale",
        n=num_nodes,
        wall_clock_s=per_epoch,
        bits=total_bits,
        metrics=metrics,
        phases=phases_from_tracer(tracer) or None,
    )
    if tracer.spans:
        emit_telemetry_jsonl("scale_vectorized", tracer)


# --------------------------------------------------------------------------- #
# Sharded backend: bit-identical to the single-process batched engine
# --------------------------------------------------------------------------- #
#: ``--smoke`` -> size of the twin networks.
SHARDED_N = {False: 10_000, True: 1024}
SHARDED_EPOCHS = 4


def test_sharded_ledger_identity(benchmark, smoke):
    """Per-epoch ledger merges leave the sharded backend bit-identical.

    Twin networks at n = 10,000 run the same drift stream, one under the
    single-process batched engine and one under ``execution="sharded"`` with
    fork workers; the merged worker ledgers must reproduce the batched
    ledger exactly — per-node bits, totals, messages, rounds and
    per-protocol breakdowns.  The sharded run's ``shard.sweep`` /
    ``shard.merge`` spans land in the BENCH_scale.json phase table.
    """
    pytest.importorskip("numpy", reason="the sharded backend needs the fast extra")

    import random

    from repro.streaming.engine import ContinuousQueryEngine
    from repro.streaming.queries import CountQuery
    from repro.streaming.vector_engine import VectorStreamEngine

    num_nodes = SHARDED_N[smoke]
    tracer = SpanTracer()

    def build(execution, telemetry=None):
        network = SensorNetwork.from_items(
            [0] * num_nodes,
            topology="random_geometric",
            seed=0,
            execution=execution,
            telemetry=telemetry,
        )
        return network

    def run_twins():
        batched_net = build("batched")
        sharded_net = build("sharded", telemetry=tracer)
        engines = [
            ContinuousQueryEngine(batched_net, epsilon=0.1),
            VectorStreamEngine(sharded_net, epsilon=0.1, shard_processes=2),
        ]
        rng_state = random.Random(17)
        epochs = []
        for _ in range(SHARDED_EPOCHS):
            updates = {
                rng_state.randrange(num_nodes): [
                    rng_state.randrange(100)
                    for _ in range(rng_state.randrange(4))
                ]
                for _ in range(num_nodes // 20)
            }
            epochs.append(updates)
        for engine in engines:
            engine.register("count", CountQuery())
            for updates in epochs:
                engine.advance_epoch(dict(updates))
            if hasattr(engine, "close"):
                engine.close()
        return batched_net, sharded_net

    started = time.perf_counter()
    batched_net, sharded_net = run_once(benchmark, run_twins)
    elapsed = time.perf_counter() - started
    left = batched_net.ledger.snapshot()
    right = sharded_net.ledger.snapshot()
    identical = (
        left.per_node_bits == right.per_node_bits
        and left.total_bits == right.total_bits
        and left.max_node_bits == right.max_node_bits
        and left.messages == right.messages
        and left.rounds == right.rounds
        and left.per_protocol_bits == right.per_protocol_bits
    )
    assert identical, "sharded ledger diverged from the batched reference"

    print()
    print(format_table(
        ["N", "epochs", "total bits", "ledgers equal"],
        [[num_nodes, SHARDED_EPOCHS, left.total_bits, identical]],
        title="E13  sharded backend: merged worker ledgers vs batched",
    ))
    emit_bench_json(
        "scale",
        n=num_nodes,
        wall_clock_s=elapsed,
        bits=left.total_bits,
        metrics={"sharded_ledger_identity": {"value": 1.0, "floor": 1.0}},
        phases=phases_from_tracer(tracer) or None,
    )
    if tracer.spans:
        emit_telemetry_jsonl("scale_sharded", tracer)
