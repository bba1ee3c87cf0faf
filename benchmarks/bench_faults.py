"""E12 — fault tolerance: incremental repair + delta re-sync vs rebuild.

The fault engine's claim is that surviving failures should cost bits
proportional to the *damage*, not the network: when 10% of a 10,000-node
field crashes at once, re-attaching the orphaned subtrees through local
adoption handshakes and re-synchronising only the summaries along repaired
paths must beat tearing the BFS tree down, flooding a rebuild over every
alive edge and recomputing every summary from scratch.  This benchmark
drives both repair policies through the same scripted crash storm (10% of
the field at epoch 2, recovering at epoch 5) over the same drifting stream
and checks:

* **savings** — the incremental policy spends ≥ 5× fewer bits across the
  fault epochs than rebuild-and-recompute (the acceptance criterion;
  measured well above that);
* **discipline** — the incremental arm never trips its rebuild fallback on
  this storm, while the naive arm rebuilds at both the storm and the
  recovery;
* **accuracy** — both arms keep the COUNT answer within the ε budget against
  the attached-population ground truth on every epoch, i.e. resilience is
  not bought with wrong answers.

``--smoke`` shrinks the field to the CI size (n = 256), which still asserts
all three properties at a size where the run takes a fraction of a second.
"""

from __future__ import annotations

import gc
import statistics
import time

from benchmarks.conftest import (
    emit_bench_json,
    emit_telemetry_jsonl,
    phases_from_tracer,
    run_once,
)
from repro.analysis.experiments import (
    run_fault_tolerance_study,
    run_root_failover_study,
)
from repro.analysis.report import format_table
from repro.faults import FaultEngine, FaultScript, RootCrash, TreeRepair
from repro.network.simulator import SensorNetwork
from repro.network.topology import build_topology
from repro.sweeps import SweepRunner, get_sweep
from repro.telemetry import (
    CostAttribution,
    FlightRecorder,
    SpanTracer,
    diagnose,
    verdict,
)
from repro.workloads.faults import storm_under_churn_script

#: ``--smoke`` -> the field sizes every test below sweeps.
SIZES = {False: (10_000,), True: (256,)}
EPOCHS = 8
STORM_EPOCH = 2
REJOIN_EPOCH = 5
CRASH_FRACTION = 0.10
SAVINGS_TARGET = 5.0
SPEEDUP_TARGET = 5.0


def test_incremental_repair_beats_rebuild(benchmark, smoke):
    started = time.perf_counter()
    # One tracer across the sweep: the incremental arm of every size runs
    # instrumented, so the bench JSON gains the per-phase wall-clock and
    # bit breakdown and CI archives the full span trace — now with the
    # flight recorder's causal events and the per-node attribution lines,
    # so the CI diagnosis gate can explain any flagged epoch.
    tracer = SpanTracer(flight=FlightRecorder(), attribution=CostAttribution())

    def sweep():
        return [
            run_fault_tolerance_study(
                num_nodes=num_nodes,
                epochs=EPOCHS,
                scenario="crash_storm",
                crash_fraction=CRASH_FRACTION,
                storm_epoch=STORM_EPOCH,
                rejoin_epoch=REJOIN_EPOCH,
                topology="random_geometric",
                seed=0,
                telemetry=tracer,
            ).measures
            for num_nodes in SIZES[smoke]
        ]

    comparisons = run_once(benchmark, sweep)

    rows = [
        [
            measures["num_nodes"],
            measures["incremental_fault_bits"],
            measures["rebuild_fault_bits"],
            round(measures["savings_factor"], 1),
            measures["incremental_repair_bits"],
            measures["rebuild_repair_bits"],
            measures["incremental_max_count_error"],
            measures["rebuild_rebuilds"],
        ]
        for measures in comparisons
    ]
    print()
    print(format_table(
        [
            "N",
            "incr. bits",
            "rebuild bits",
            "savings",
            "incr. repair",
            "rebuild repair",
            "count err",
            "rebuilds",
        ],
        rows,
        title=(
            f"E12  10% crash storm + recovery: incremental repair vs "
            f"rebuild-and-recompute ({EPOCHS} epochs)"
        ),
    ))

    for measures in comparisons:
        num_nodes = measures["num_nodes"]
        benchmark.extra_info[f"savings_{num_nodes}"] = round(
            measures["savings_factor"], 2
        )
        benchmark.extra_info[f"incremental_bits_{num_nodes}"] = (
            measures["incremental_fault_bits"]
        )
        benchmark.extra_info[f"rebuild_bits_{num_nodes}"] = (
            measures["rebuild_fault_bits"]
        )
        # Acceptance: ≥ 5× fewer bits across the fault epochs.
        assert measures["savings_factor"] >= SAVINGS_TARGET
        # The incremental arm stayed incremental (its fallback threshold was
        # never tripped); the naive arm rebuilt at the storm and the rejoin.
        assert measures["incremental_rebuilds"] == 0
        assert measures["rebuild_rebuilds"] >= 2
        # Resilience does not cost accuracy: both arms stay within ε · n of
        # the attached ground truth on every epoch.
        budget = measures["count_error_budget"]
        assert measures["incremental_max_count_error"] <= budget
        assert measures["rebuild_max_count_error"] <= budget

    headline = comparisons[-1]
    diagnosis = diagnose(list(tracer.iter_dicts()))
    # The storm epochs must be explainable: every flagged epoch walks back
    # to a recorded cause (the strict CI gate re-checks this on the trace).
    assert not diagnosis.unattributed, [a.render() for a in diagnosis.unattributed]
    emit_bench_json(
        "faults",
        n=headline["num_nodes"],
        wall_clock_s=time.perf_counter() - started,
        bits=headline["incremental_fault_bits"],
        metrics={
            "repair_savings": {
                "value": round(headline["savings_factor"], 2),
                "floor": SAVINGS_TARGET,
            },
        },
        phases=phases_from_tracer(tracer),
        anomaly=verdict(diagnosis),
    )
    emit_telemetry_jsonl("faults", tracer)


def test_savings_across_fault_scenarios(benchmark):
    """Regional outages, churn and link storms also favour incremental repair."""

    def sweep():
        return {
            scenario: run_fault_tolerance_study(
                num_nodes=256,
                epochs=EPOCHS,
                scenario=scenario,
                crash_fraction=CRASH_FRACTION,
                storm_epoch=STORM_EPOCH,
                rejoin_epoch=REJOIN_EPOCH,
                topology="random_geometric",
                seed=1,
            ).measures
            for scenario in ("regional_outage", "churn", "link_storm")
        }

    results = run_once(benchmark, sweep)
    rows = [
        [
            scenario,
            measures["incremental_fault_bits"],
            measures["rebuild_fault_bits"],
            round(measures["savings_factor"], 1),
            measures["incremental_max_count_error"],
        ]
        for scenario, measures in results.items()
    ]
    print()
    print(format_table(
        ["scenario", "incr. bits", "rebuild bits", "savings", "count err"],
        rows,
        title="E12b  savings factor by fault scenario (N = 256, 8 epochs)",
    ))
    for scenario, measures in results.items():
        benchmark.extra_info[f"{scenario}_savings"] = round(
            measures["savings_factor"], 2
        )
        assert measures["savings_factor"] >= SAVINGS_TARGET
        assert (
            measures["incremental_max_count_error"] <= measures["count_error_budget"]
        )


# --------------------------------------------------------------------------- #
# E13 — root fail-over: charged election + re-rooting vs rebuild-and-recompute
# --------------------------------------------------------------------------- #
def test_root_failover_beats_charged_rebuild(benchmark, smoke):
    """Losing the query node is survivable, measured, and cheaper than naive.

    A scripted :class:`~repro.faults.RootCrash` kills the root mid-stream.
    Both arms pay the identical charged election (candidate convergecast +
    winner flood + re-rooting flips under ``faults:election``); the
    fail-over arm then re-roots the winner's fragment along the reversed
    root path and re-attaches the other fragments as units, while the
    baseline arm floods a fresh BFS tree and recomputes every summary.
    Acceptance: the fail-over epoch bill never exceeds the charged
    rebuild-and-recompute baseline, the per-epoch decomposition
    ``total == repair + query + detection + election`` holds exactly, and
    the per-edge and batched election paths are bit-for-bit ledger twins.
    """
    started = time.perf_counter()

    def sweep():
        return [
            run_root_failover_study(
                num_nodes=num_nodes,
                epochs=EPOCHS,
                crash_epoch=STORM_EPOCH,
                topology="random_geometric",
                seed=0,
            ).measures
            for num_nodes in SIZES[smoke]
        ]

    comparisons = run_once(benchmark, sweep)
    rows = [
        [
            measures["num_nodes"],
            measures["new_root"],
            measures["failover_fault_bits"],
            measures["rebuild_fault_bits"],
            round(measures["savings_factor"], 2),
            measures["failover_election_bits"],
            measures["failover_max_count_error"],
        ]
        for measures in comparisons
    ]
    print()
    print(format_table(
        [
            "N",
            "new root",
            "failover bits",
            "rebuild bits",
            "savings",
            "election bits",
            "count err",
        ],
        rows,
        title=(
            f"E13  root crash at epoch {STORM_EPOCH}: charged election + "
            f"re-root vs rebuild-and-recompute ({EPOCHS} epochs)"
        ),
    ))

    for measures in comparisons:
        benchmark.extra_info[f"failover_savings_{measures['num_nodes']}"] = round(
            measures["savings_factor"], 2
        )
        # Election + re-root + stream recovery is one fully accounted epoch.
        assert measures["decomposition_holds"]
        # Both arms paid the same (non-trivial) election bill.
        assert measures["failover_election_bits"] > 0
        assert measures["failover_election_bits"] == measures["rebuild_election_bits"]
        # Acceptance: fail-over costs no more than the charged naive
        # response (in practice well below — the margin is the re-sync
        # traffic the cache migration avoids).
        assert measures["failover_fault_bits"] <= measures["rebuild_fault_bits"]
        # The handover does not cost accuracy in either arm.
        budget = measures["count_error_budget"]
        assert measures["failover_max_count_error"] <= budget
        assert measures["rebuild_max_count_error"] <= budget

    # Per-edge vs batched elections are interchangeable at the headline
    # size: same winner, same re-rooted tree, bit-for-bit identical ledgers.
    num_nodes = max(SIZES[smoke])
    graph = build_topology("random_geometric", num_nodes, seed=0)
    networks = []
    for mode in ("batched", "per-edge"):
        network = SensorNetwork.from_items(
            [0] * num_nodes, topology=graph, seed=0, degree_bound=None,
            execution=mode,
        )
        faults = FaultEngine(network, script=FaultScript().add(0, RootCrash()))
        report = faults.step(0)
        assert report.election is not None
        networks.append(network)
    assert networks[0].root_id == networks[1].root_id
    assert networks[0].tree.parent == networks[1].tree.parent
    left = networks[0].ledger.snapshot()
    right = networks[1].ledger.snapshot()
    assert left.per_node_bits == right.per_node_bits
    assert left.per_protocol_bits == right.per_protocol_bits
    assert left.rounds == right.rounds

    headline = comparisons[-1]
    emit_bench_json(
        "faults",
        n=headline["num_nodes"],
        wall_clock_s=time.perf_counter() - started,
        bits=headline["failover_fault_bits"],
        metrics={
            "root_failover_savings": {
                "value": round(headline["savings_factor"], 2),
                "floor": 1.0,
            },
        },
    )


# --------------------------------------------------------------------------- #
# The cost of knowing: charged heartbeat detection
# --------------------------------------------------------------------------- #
def test_heartbeat_detection_pays_for_failure_knowledge(benchmark, tmp_path):
    """Charged detection keeps the repair gap while exposing its real price.

    Sweeping the heartbeat period (the ``e12c_heartbeat`` spec, whose full
    size — N = 256 — is already CI-sized) shows the trade: shorter periods
    pay more standing bits for instant detection, longer periods pay less
    but answer with stale zombie summaries until the next sweep (visible as
    COUNT error during the detection window).  Both repair policies pay the
    same bill, so incremental repair still beats rebuild-and-recompute by
    ≥5x with detection charged.
    """
    spec = get_sweep("e12c_heartbeat")
    runner = SweepRunner(spec, cache_dir=tmp_path, processes=0)
    # Matrix order is the axis order: the oracle row, then periods 1, 2, 4, 8.
    records = [
        outcome.result["measures"] for outcome in run_once(benchmark, runner.run).outcomes
    ]
    rows = [
        [
            "oracle" if record["detector_period"] is None else record["detector_period"],
            record["detection_bits"],
            round(record["detection_bits"] / record["epochs"], 1),
            round(record["detection_latency"], 2),
            record["worst_case_latency"],
            record["incremental_max_count_error"],
            round(record["savings_factor"], 1),
        ]
        for record in records
    ]
    print()
    print(format_table(
        [
            "period",
            "detect bits",
            "bits/epoch",
            "mean latency",
            "worst",
            "count err",
            "savings",
        ],
        rows,
        title=(
            f"E12c  heartbeat period vs detection latency "
            f"(N = {spec.base['n']}, {spec.base['epochs']} epochs)"
        ),
    ))

    oracle = records[0]
    charged = records[1:]
    assert oracle["detector_period"] is None and oracle["detection_bits"] == 0
    for record in charged:
        period = record["detector_period"]
        benchmark.extra_info[f"period_{period}_bits"] = record["detection_bits"]
        # Detection is charged, and the repair-vs-rebuild gap survives it.
        assert record["detection_bits"] > 0
        assert record["savings_factor"] >= SAVINGS_TARGET
    # Longer periods pay fewer heartbeat bits...
    bits = [record["detection_bits"] for record in charged]
    assert bits == sorted(bits, reverse=True)
    # ...at the price of real detection latency (and stale answers).
    instant, *delayed = charged
    assert instant["detection_latency"] == 0.0
    assert all(record["detection_latency"] > 0 for record in delayed)
    assert max(record["incremental_max_count_error"] for record in delayed) > 0

    emit_bench_json(
        "faults",
        n=spec.base["n"],
        wall_clock_s=0.0,
        bits=charged[0]["detection_bits"],
        metrics={
            "heartbeat_savings": {
                "value": round(min(r["savings_factor"] for r in charged), 2),
                "floor": SAVINGS_TARGET,
            },
        },
    )


# --------------------------------------------------------------------------- #
# Wall-clock: the batched repair core vs the per-edge reference
# --------------------------------------------------------------------------- #
WALL_CLOCK_EPOCHS = 16
WALL_CLOCK_STORM_EPOCH = 4
WALL_CLOCK_REJOIN_EPOCH = 8
WALL_CLOCK_CHURN_RATE = 0.002
WALL_CLOCK_REPEATS = 3


class _TimedRepair:
    """Wrap a repair policy; accumulate the wall-clock of every repair pass.

    The measured unit is the *repair pass as the batched execution core
    consumes it*: patching the spanning tree plus delivering a current
    :class:`~repro.network.FlatTree` view for the next batched traversal.
    The per-edge reference rebuilds that view from scratch; the batched
    path rewires it in place — exactly the difference the flat-array port
    exists to exploit.
    """

    def __init__(self, inner, network):
        self.inner = inner
        self.network = network
        self.seconds = 0.0

    def repair(self, network):
        start = time.perf_counter()
        result = self.inner.repair(network)
        self.network.flat_tree
        self.seconds += time.perf_counter() - start
        return result


def _run_crash_storm(graph, execution: str):
    network = SensorNetwork.from_items(
        [0] * graph.number_of_nodes(), topology=graph, seed=0, degree_bound=None
    )
    script = storm_under_churn_script(
        network.node_ids(),
        epochs=WALL_CLOCK_EPOCHS,
        storm_epoch=WALL_CLOCK_STORM_EPOCH,
        storm_fraction=CRASH_FRACTION,
        rejoin_epoch=WALL_CLOCK_REJOIN_EPOCH,
        churn_rate=WALL_CLOCK_CHURN_RATE,
        seed=0,
    )
    timed = _TimedRepair(TreeRepair(execution=execution), network)
    faults = FaultEngine(network, script=script, repair=timed)
    network.flat_tree  # a running deployment starts with a current view
    gc.collect()
    gc.disable()
    try:
        for epoch in range(WALL_CLOCK_EPOCHS):
            faults.step(epoch)
    finally:
        gc.enable()
    return timed.seconds, network


def test_batched_repair_outpaces_per_edge(benchmark, smoke):
    """The flat-array repair pass is ≥5x faster at n = 10,000 (target ≥10x).

    A 10% crash storm (recovering four epochs later) rides on sustained
    background churn — the regime ROADMAP's "Scale ceiling" item calls out,
    where the per-edge pass pays O(alive edges) every fault epoch no matter
    how small the damage.  Repair wall-clock (tree patch + flat-view
    delivery) is accumulated per pass over interleaved repeats; the two
    paths must also agree exactly on the repaired tree and the ledger.
    """
    num_nodes = max(SIZES[smoke])
    graph = build_topology("random_geometric", num_nodes, seed=0)

    def race():
        per_edge, batched = [], []
        for _ in range(WALL_CLOCK_REPEATS):
            seconds, reference_network = _run_crash_storm(graph, "per-edge")
            per_edge.append(seconds)
            seconds, batched_network = _run_crash_storm(graph, "batched")
            batched.append(seconds)
        return per_edge, batched, reference_network, batched_network

    per_edge, batched, reference_network, batched_network = run_once(
        benchmark, race
    )
    speedup = statistics.median(per_edge) / statistics.median(batched)

    print()
    print(format_table(
        ["path", "repair wall-clock (ms, per repeat)", "median (ms)"],
        [
            [
                "per-edge",
                " ".join(f"{seconds * 1000:.0f}" for seconds in per_edge),
                round(statistics.median(per_edge) * 1000, 1),
            ],
            [
                "batched",
                " ".join(f"{seconds * 1000:.0f}" for seconds in batched),
                round(statistics.median(batched) * 1000, 1),
            ],
        ],
        title=(
            f"E12d  repair pass wall-clock, 10% storm + churn "
            f"(N = {num_nodes}, {WALL_CLOCK_EPOCHS} epochs): "
            f"{speedup:.1f}x"
        ),
    ))
    benchmark.extra_info["repair_speedup"] = round(speedup, 2)

    # The two paths are interchangeable, not merely comparable: identical
    # repaired trees and bit-for-bit identical ledgers.
    assert reference_network.tree.parent == batched_network.tree.parent
    left = reference_network.ledger.snapshot()
    right = batched_network.ledger.snapshot()
    assert left.per_node_bits == right.per_node_bits
    assert left.per_protocol_bits == right.per_protocol_bits
    assert left.rounds == right.rounds

    metrics = {}
    if not smoke:
        # Acceptance: ≥5x wall-clock on the 10k-node repair pass.  Timing on
        # shared smoke runners is noise, so the smoke job checks only the
        # equivalence half above.
        assert speedup >= SPEEDUP_TARGET
        metrics["repair_speedup"] = {
            "value": round(speedup, 2),
            "floor": SPEEDUP_TARGET,
        }
    emit_bench_json(
        "faults",
        n=num_nodes,
        wall_clock_s=statistics.median(batched),
        bits=batched_network.ledger.total_bits,
        metrics=metrics,
    )
