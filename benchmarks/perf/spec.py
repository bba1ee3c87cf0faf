"""The fixed vocabulary of the benchmark: workloads, metrics, bounds, errors.

Every later performance or simplicity change is judged on these names, so
they live in one table that the harness, ``compare``, the smoke test and
``BENCHMARK.json`` all read.  Sizes come in two sets — ``FULL`` (the
comparable numbers) and ``SMOKE`` (the same code path in seconds, output
marked ``"comparable": false``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Stream epochs that belong to set-up: the full initial load plus the first
#: delta epoch (lazy caches fill there).
WARMUP_EPOCHS = 2

#: The field is one fixed deployment: its layout is drawn once, with this
#: seed, and ``--seed`` drives everything that *happens* on it (readings,
#: drift, faults, radio losses, sketch salts).  Letting the seed redraw the
#: topology as well made tree depth — and with it every timing — swing by
#: more than the regression bounds from one seed to the next.
FIELD_SEED = 0

#: Shared by every stream workload.
EPSILON = 0.1
VALUE_MAX = 1 << 16
DRIFT_FRACTION = 0.02
CHURN_RATE = 0.002
STORM_FRACTION = 0.1
LOSS_RATE = 0.05
TENANTS = 32

#: The differential verify runs each stream workload's script at this size.
DIFF_NODES = 512
DIFF_EPOCHS = 24


class PerfBenchError(Exception):
    """Base of the benchmark's named failures (each exits non-zero)."""


class UnknownNameError(PerfBenchError):
    """A workload or metric name the benchmark does not define."""


class MissingNumpyError(PerfBenchError):
    """A vectorized workload was asked for without numpy importable."""


class ChildDiedError(PerfBenchError):
    """A repeat's child interpreter exited without a result."""


class ExactMismatchError(PerfBenchError):
    """A count that must repeat exactly did not."""


class ShardWorkerError(PerfBenchError):
    """A sharded-path worker died or hung instead of answering."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"stream"`` (op = one ``run_faulty_stream`` epoch) or ``"oneshot"``
    #: (op = one query of the paper's protocols).
    kind: str
    needs_numpy: bool


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "quiet_drift",
        "steady state every round pays: heartbeat sweep, fused sweep_levels "
        "and ledger charges do all the work, repair/election/rewire none",
        "stream",
        True,
    ),
    Workload(
        "storm_churn",
        "10% crash storm, rejoin and a root crash on background churn: "
        "repair, rewire, election and cache re-sync dominate every epoch",
        "stream",
        True,
    ),
    Workload(
        "observed_quiet",
        "quiet_drift's exact inputs with SpanTracer + flight recorder + "
        "attribution installed: isolates the cost of watching end to end",
        "stream",
        True,
    ),
    Workload(
        "tenants_lossy",
        "32 tenants over 4 shared legs on a deep grid with a 5%-loss radio: "
        "generic summary objects, radio retries, small batches, ledger split",
        "stream",
        False,
    ),
    Workload(
        "oneshot_paper",
        "the paper's one-shot protocols on a static field: protocols, core, "
        "sketches and send_batch do all the work, the epoch path none",
        "oneshot",
        False,
    ),
)
WORKLOAD_NAMES = tuple(workload.name for workload in WORKLOADS)


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise UnknownNameError(
        f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}"
    )


#: Per-repeat sizes.  Stream ``epochs`` include the warm-up epochs; the
#: storm, rejoin and root crash of ``storm_churn`` land at 1/4, 1/2 and 3/4
#: of the run.  ``oneshot_paper`` runs ``rounds`` rounds of its 12 queries.
FULL = {
    "repeats": 3,
    "quiet_drift": {"n": 20_000, "epochs": 302},
    "storm_churn": {"n": 20_000, "epochs": 74},
    "observed_quiet": {"n": 20_000, "epochs": 102},
    "tenants_lossy": {"n": 1_600, "epochs": 74},
    "oneshot_paper": {"n": 1_024, "rounds": 6},
}
SMOKE = {
    "repeats": 1,
    "quiet_drift": {"n": 512, "epochs": 12},
    "storm_churn": {"n": 512, "epochs": 12},
    "observed_quiet": {"n": 512, "epochs": 12},
    "tenants_lossy": {"n": 400, "epochs": 12},
    "oneshot_paper": {"n": 256, "rounds": 1},
}


def sizes(smoke: bool) -> dict:
    return SMOKE if smoke else FULL


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Allowed worsening as a share of the parent's median before ``compare``
    #: calls a regression; ``0.0`` marks an exact count (compared with
    #: ``==`` at equal seeds), ``None`` a per-layer metric.
    bound: float | None
    #: The bound an external driver gates on (``end_to_end`` of
    #: ``BENCHMARK.json``), or ``None`` when the metric is reported by the
    #: traced run instead.  A driver measures across *different* seeds, so it
    #: can only gate what is never zero and steady from seed to seed: the
    #: message count gets a coarse gate there, and what is zero on a healthy
    #: run, swings with the inputs (``bits_per_op``, ``max_node_bits``) or
    #: sits on the sparse tail (``op_ms_p95``) gets none.
    gate: float | None = None


#: Timing bounds are as wide as they are because the 2-core sandbox is that
#: noisy: a fixed pure-Python loop swings by +-15% from second to second and
#: whole runs drift by +-5% over minutes (README, "Noise").  The 10-pair
#: protocol, not these bounds, decides whether a gain is real.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, gate=0.25),
    Metric("ops_per_s", "op/s", "higher", 0.25, gate=0.25),
    Metric("op_ms_p50", "ms", "lower", 0.25, gate=0.25),
    Metric("op_ms_p95", "ms", "lower", 0.25),
    Metric("host_us_per_message", "us", "lower", 0.25, gate=0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05, gate=0.05),
    Metric("bits_per_op", "bits", "lower", 0.0),
    Metric("messages_per_op", "msgs", "lower", 0.0, gate=0.25),
    Metric("max_node_bits", "bits", "lower", 0.0),
    Metric("answer_error_worst", "ratio", "lower", 0.0),
    Metric("failed_op_frac", "ratio", "lower", 0.0),
)
GATED: tuple[Metric, ...] = tuple(m for m in END_TO_END if m.gate is not None)
END_TO_END_NAMES = tuple(metric.name for metric in END_TO_END)
EXACT_NAMES = tuple(m.name for m in END_TO_END if m.bound == 0.0)

#: Layer spans, named after the module whose entry point is wrapped.
SPANS = (
    "workloads.stream_step",
    "faults.step",
    "faults.detection.charge_sweep",
    "faults.repair.repair",
    "faults.election.elect",
    "network.flat_tree.rewire",
    "streaming.apply_repair",
    "streaming.advance_epoch",
    "streaming.sweep_levels",
    "network.send_batch",
    "network.radio.filter_batch",
    "network.accounting.charge",
    "tenancy.split_epoch",
    "telemetry.attribution.observe",
    "faults.runner.truth",
    "protocols.broadcast",
    "protocols.convergecast",
    "core.median",
    "core.order_statistic",
    "core.apx_median",
    "core.apx_median2",
    "protocols.apx_count",
    "distinct.approx",
    "distinct.exact",
    "protocols.aggregates",
)
#: Op time covered by no span; has a self time but no call count.
RUNNER_SELF = "runner.self"

COUNTERS = (
    Metric("network.send_batch.links_per_call", "links", "higher", None),
    Metric("network.radio.attempts_per_delivery", "ratio", "lower", None),
    Metric("streaming.suppression_ratio", "ratio", "higher", None),
    Metric("streaming.dirty_per_op", "nodes", "lower", None),
    Metric("faults.detection.bits_share", "ratio", "lower", None),
    Metric("faults.repair.reparented_per_op", "nodes", "lower", None),
    Metric("faults.repair.rebuilds", "count", "lower", None),
    Metric("faults.election.bits_per_election", "bits", "lower", None),
    Metric("tenancy.legs", "count", "lower", None),
    Metric("telemetry.spans_per_op", "count", "lower", None),
    Metric("telemetry.overhead_ms_per_op", "ms", "lower", None),
    Metric("tracing.overhead_ms_per_op", "ms", "lower", None),
)

MICRO = (
    Metric("micro.radio.filter_batch_reliable_ns_per_link", "ns", "lower", None),
    Metric("micro.radio.filter_batch_lossy_ns_per_link", "ns", "lower", None),
    Metric("micro.ledger.charge_batch_ns_per_link", "ns", "lower", None),
    Metric("micro.ledger.charge_array_ns_per_link", "ns", "lower", None),
    Metric("micro.flat_tree.build_ms", "ms", "lower", None),
    Metric("micro.flat_tree.rewire_ms", "ms", "lower", None),
    Metric("micro.sweep_levels_ms", "ms", "lower", None),
    Metric("micro.heartbeat.charge_sweep_ms", "ms", "lower", None),
    Metric("micro.heartbeat.vectorized_ms", "ms", "lower", None),
    Metric("micro.repair.churn_pass_ms", "ms", "lower", None),
    Metric("micro.repair.storm_pass_ms", "ms", "lower", None),
    Metric("micro.election.elect_ms", "ms", "lower", None),
    Metric("micro.tenancy.split_epoch_us", "us", "lower", None),
    Metric("micro.telemetry.span_us", "us", "lower", None),
    Metric("micro.telemetry.phases_payload_ms", "ms", "lower", None),
    Metric("micro.sketch.qdigest_merge_us", "us", "lower", None),
    Metric("micro.sketch.loglog_merge_us", "us", "lower", None),
)
PATHS = (
    Metric("path.per_edge.epoch_ms", "ms", "lower", None),
    Metric("path.batched.epoch_ms", "ms", "lower", None),
    Metric("path.vectorized.epoch_ms", "ms", "lower", None),
    Metric("path.sharded.epoch_ms", "ms", "lower", None),
    Metric("path.vector_field.epoch_ms", "ms", "lower", None),
)


SPAN_METRICS: tuple[Metric, ...] = tuple(
    Metric(f"{span}.{suffix}", unit, "lower", None)
    for span in SPANS
    for suffix, unit in (("self_ms_per_op", "ms"), ("calls_per_op", "count"))
) + (Metric(f"{RUNNER_SELF}.self_ms_per_op", "ms", "lower", None),)

#: The end-to-end metrics a driver does not gate, reported by the traced run.
UNGATED: tuple[Metric, ...] = tuple(
    Metric(m.name, m.unit, m.better, None) for m in END_TO_END if m.gate is None
)
#: What a traced run (``--trace 1``) reports.
TRACED: tuple[Metric, ...] = SPAN_METRICS + COUNTERS + UNGATED
#: What ``--layers`` reports.
LAYERS: tuple[Metric, ...] = MICRO + PATHS
PER_LAYER: tuple[Metric, ...] = TRACED + LAYERS


def metric(name: str) -> Metric:
    for candidate in END_TO_END + PER_LAYER:
        if candidate.name == name:
            return candidate
    raise UnknownNameError(f"unknown metric {name!r}")
