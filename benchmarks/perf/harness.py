"""Orchestration: fresh child per repeat, pooling, the verify pass.

The parent process never imports the library under test; every repeat,
the differential verify and the layer benches run in their own child
interpreter, one at a time (closed loop, one client, no threads).  Per-op
samples are pooled across repeats for the percentiles; rates, set-up and
RSS are the median across repeats with the per-repeat values kept beside
them so ``compare`` can judge the spread.
"""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from benchmarks.perf import spec

ROOT = Path(__file__).resolve().parents[2]
CHILD_TIMEOUT_S = 170
#: The sharded path talks to fork workers through a blocking ``pool.map``;
#: a dead or hung worker would hang it forever, so its child gets this long.
SHARDED_TIMEOUT_S = 60
#: More repeats than this add nothing the pooled percentiles need.
MAX_REPEATS = 8


# --------------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------------- #
def child(
    task: str,
    *,
    context: str,
    timeout: float = CHILD_TIMEOUT_S,
    error: type[spec.PerfBenchError] = spec.ChildDiedError,
    **arguments,
) -> dict:
    """Run ``task`` in a fresh interpreter; return its JSON result.

    The child leads its own process group, so when it overruns ``timeout``
    the whole group — fork workers included — is killed and reaped before
    ``error`` is raised.
    """
    command = [
        sys.executable,
        "-m",
        "benchmarks.perf",
        "_child",
        task,
        json.dumps(arguments),
    ]
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # Nothing the child started may outlive it, however it ended.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if stdout is None:
        raise error(f"{context}: no answer within {timeout:.0f}s, killed")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        raise error(
            f"{context}: child exited with code {process.returncode}: {tail[0]}"
        )
    return json.loads(lines[-1])


def run_child_task(task: str, arguments: dict) -> dict:
    """Child side of :func:`child` — the only place the library is imported."""
    if task == "repeat":
        from benchmarks.perf import repeat

        return repeat.run_repeat(**arguments)
    if task == "differential":
        from benchmarks.perf import verify

        return {"difference": verify.differential(**arguments)}
    if task in ("layers", "sharded_path"):
        from benchmarks.perf import layers

        run = layers.run_layers if task == "layers" else layers.run_sharded_path
        return run(**arguments)
    raise spec.UnknownNameError(f"unknown child task {task!r}")


def require_numpy(workload: spec.Workload) -> None:
    if workload.needs_numpy and importlib.util.find_spec("numpy") is None:
        raise spec.MissingNumpyError(
            f"workload {workload.name!r} measures the vectorized path and numpy "
            "is not importable; refusing to time the pure-Python fallback"
        )


def repeat(name: str, seed: int, smoke: bool, traced: bool, index: int) -> dict:
    return child(
        "repeat",
        context=f"workload {name!r} repeat {index}",
        name=name,
        seed=seed,
        smoke=smoke,
        traced=traced,
        started=perf_counter(),
    )


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
def percentiles(samples: list[float]) -> tuple[float, float]:
    """``(p50, p95)``; a lone sample is its own percentile."""
    if len(samples) < 2:
        return samples[0], samples[0]
    cuts = statistics.quantiles(samples, n=20, method="inclusive")
    return statistics.median(samples), cuts[18]


def _timing_row(repeat_result: dict) -> dict[str, float]:
    ops = len(repeat_result["op_ms"])
    p50, p95 = percentiles(repeat_result["op_ms"])
    return {
        "setup_s": repeat_result["setup_s"],
        "ops_per_s": ops / repeat_result["timed_s"],
        "op_ms_p50": p50,
        "op_ms_p95": p95,
        "host_us_per_message": 1e6
        * repeat_result["timed_s"]
        / max(1, repeat_result["messages"]),
        "peak_rss_mb": repeat_result["peak_rss_mb"],
    }


def _exact_row(repeat_result: dict) -> dict[str, float]:
    ops = len(repeat_result["op_ms"])
    return {
        **repeat_result["cost"],
        "answer_error_worst": repeat_result["answer_error_worst"],
        "failed_op_frac": len(repeat_result["failed_ops"]) / ops,
    }


def pool(name: str, repeats: list[dict]) -> dict:
    """Fold one workload's repeats into its end-to-end metrics."""
    first = _exact_row(repeats[0])
    for index, result in enumerate(repeats[1:], start=2):
        row = _exact_row(result)
        for metric in spec.EXACT_NAMES:
            if row[metric] != first[metric]:
                raise spec.ExactMismatchError(
                    f"workload {name!r} repeat {index}: {metric} = {row[metric]!r} "
                    f"but repeat 1 measured {first[metric]!r}"
                )
    rows = [_timing_row(result) for result in repeats]
    pooled = [sample for result in repeats for sample in result["op_ms"]]
    p50, p95 = percentiles(pooled)
    metrics = {}
    for metric in spec.END_TO_END:
        if metric.name in first:
            value, per_repeat = first[metric.name], [first[metric.name]] * len(repeats)
        else:
            per_repeat = [row[metric.name] for row in rows]
            value = statistics.median(per_repeat)
        metrics[metric.name] = {
            "value": value,
            "unit": metric.unit,
            "repeats": per_repeat,
        }
    metrics["op_ms_p50"]["value"] = p50
    metrics["op_ms_p95"]["value"] = p95
    ops = len(repeats[0]["op_ms"])
    return {
        "ops_per_repeat": ops,
        "repeats": len(repeats),
        "samples": len(pooled),
        "attempted": ops * len(repeats),
        "failed": sum(len(result["failed_ops"]) for result in repeats),
        "metrics": metrics,
    }


def measure(
    name: str, seed: int, smoke: bool, min_repeats: int, seconds: float
) -> tuple[dict, list[dict]]:
    """The end-to-end pass: repeats until both ``min_repeats`` and
    ``seconds`` of timed ops are reached."""
    require_numpy(spec.workload(name))
    repeats: list[dict] = []
    timed = 0.0
    while len(repeats) < MAX_REPEATS and (
        len(repeats) < min_repeats or timed < seconds
    ):
        result = repeat(name, seed, smoke, False, len(repeats) + 1)
        timed += result["timed_s"]
        repeats.append(result)
    return pool(name, repeats), repeats


# --------------------------------------------------------------------------- #
# The traced (verify) pass
# --------------------------------------------------------------------------- #
#: Record fields that only exist when the ground truth was computed.
TRUTH_FIELDS = ("truths", "errors")


def first_difference(
    left: list[dict], right: list[dict], left_ledger: dict, right_ledger: dict
) -> str | None:
    """Where two passes over the same inputs first disagree, or ``None``.

    Rows are compared field by field except the truth columns (one pass may
    not have computed them); the ledgers are compared last.
    """
    if len(left) != len(right):
        return f"{len(left)} ops against {len(right)}"
    for index, (a, b) in enumerate(zip(left, right)):
        for column in a:
            if column not in TRUTH_FIELDS and a[column] != b.get(column):
                return (
                    f"op {index} column {column!r}: {a[column]!r} != {b.get(column)!r}"
                )
    for key in left_ledger:
        if left_ledger[key] != right_ledger[key]:
            return f"final ledger {key}: {left_ledger[key]!r} != {right_ledger[key]!r}"
    return None


def trace(name: str, seed: int, smoke: bool, reference: dict) -> dict:
    """One traced repeat against the untraced ``reference`` repeat.

    Returns the per-layer numbers; ``difference`` names the first place the
    two passes disagree (``None`` when they are identical, as they must be).
    """
    traced = repeat(name, seed, smoke, True, 1)
    difference = first_difference(
        reference["rows"], traced["rows"], reference["ledger"], traced["ledger"]
    )
    if difference is None and traced["cost"] != reference["cost"]:
        difference = f"cost {traced['cost']!r} != {reference['cost']!r}"
    ops = len(traced["op_ms"])
    layers = traced["layers"]
    values: dict[str, float] = {counter.name: 0.0 for counter in spec.COUNTERS}
    for span, row in layers.items():
        for key, value in row.items():
            values[f"{span}.{key}"] = value
    values.update(traced["counters"])
    # What the wrappers themselves cost: traced minus untraced op time,
    # less the ground-truth sweep only the traced pass runs.
    values["tracing.overhead_ms_per_op"] = (
        1000.0 * (traced["timed_s"] - reference["timed_s"]) / ops
        - layers["faults.runner.truth"]["self_ms_per_op"]
    )
    # The end-to-end metrics a driver does not gate ride along here: exact
    # counts from the verify pass, timings from the untraced repeat.
    ungated = {**_timing_row(reference), **_exact_row(traced)}
    values.update({m.name: ungated[m.name] for m in spec.UNGATED})
    return {
        "values": values,
        "difference": difference,
        "attempted": ops,
        "failed": len(traced["failed_ops"]),
        "self_time_sum_ms": sum(row["self_ms_per_op"] for row in layers.values()),
        "op_ms_mean": 1000.0 * traced["timed_s"] / ops,
    }


# --------------------------------------------------------------------------- #
# Layer benches
# --------------------------------------------------------------------------- #
def layers(seed: int, smoke: bool) -> dict:
    """Micro-benches and the path table; ``identical`` is whether every
    path sharing the cost model ended with the per-edge ledger."""
    require_numpy(spec.workload("quiet_drift"))
    main = child("layers", context="layer benches", seed=seed, smoke=smoke)
    sharded = child(
        "sharded_path",
        context="path.sharded (2 fork workers)",
        timeout=SHARDED_TIMEOUT_S,
        error=spec.ShardWorkerError,
        seed=seed,
        smoke=smoke,
    )
    metrics = main["metrics"]
    metrics["path.sharded.epoch_ms"] = sharded["stat"]
    ledgers = {**main["ledgers"], "sharded": sharded["ledger"]}
    reference = ledgers["per-edge"]
    different = [path for path, ledger in ledgers.items() if ledger != reference]
    return {
        "metrics": metrics,
        "identical": not different,
        "note": "ledgers of per-edge, batched, vectorized and sharded are identical"
        if not different
        else f"ledger of {', '.join(different)} DIFFERS from per-edge",
    }
