"""Command line: the end-to-end pass, the traced pass, layers, compare.

``python -m benchmarks.perf``                  all workloads, end to end
``python -m benchmarks.perf --trace``          traced (verify) pass + layers
``python -m benchmarks.perf --layers``         micro-benches + path table only
``python -m benchmarks.perf --smoke``          same code path, tiny sizes
``python -m benchmarks.perf compare A B``      verdicts between two results

With exactly one ``--workload`` the last stdout line is the one-object
summary a benchmark driver reads (``correct`` / ``attempted`` / ``failed`` /
``metrics``); ``--seconds`` keeps adding repeats until that much timed work
has been measured.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.perf import compare, harness, report, spec


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    parser.add_argument(
        "--workload",
        action="append",
        metavar="NAME",
        help=f"run only this workload (repeatable); one of {', '.join(spec.WORKLOAD_NAMES)}",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=None, help="fewest repeats per workload (default 3)"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=0.0,
        help="keep adding repeats until this much timed work is measured",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        choices=(0, 1),
        const=1,
        default=0,
        help="traced pass: per-layer spans, ground-truth verify, layer benches",
    )
    parser.add_argument(
        "--layers", action="store_true", help="only the micro-benches and path table"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, output not comparable"
    )
    parser.add_argument("--out", default=None, help="write the JSON result here")
    return parser


def _differential(names: list[str], seed: int) -> dict[str, str | None]:
    results = {}
    for name in names:
        if spec.workload(name).kind != "stream":
            continue
        harness.require_numpy(spec.workload(name))
        results[name] = harness.child(
            "differential",
            context=f"workload {name!r} differential verify",
            name=name,
            seed=seed,
        )["difference"]
    return results


def _telemetry_overhead(names, references, seed, smoke) -> float | None:
    """``observed_quiet`` minus ``quiet_drift`` untraced ``op_ms_p50``."""
    if "observed_quiet" not in names:
        return None
    if "quiet_drift" not in references:
        references["quiet_drift"] = harness.repeat("quiet_drift", seed, smoke, False, 1)
    observed, _ = harness.percentiles(references["observed_quiet"]["op_ms"])
    quiet, _ = harness.percentiles(references["quiet_drift"]["op_ms"])
    return observed - quiet


def run(args: argparse.Namespace) -> int:
    names = args.workload or list(spec.WORKLOAD_NAMES)
    for name in names:
        spec.workload(name)
    sizes = spec.sizes(args.smoke)
    result: dict = {
        "schema": 1,
        "comparable": not args.smoke,
        "seed": args.seed,
        "traced": bool(args.trace),
        "workloads": {},
    }
    correct = True
    attempted = failed = 0

    if not args.layers:
        references: dict[str, dict] = {}
        for name in names:
            if args.trace:
                entry, repeats = harness.measure(name, args.seed, args.smoke, 1, 0.0)
                references[name] = repeats[0]
                entry["trace"] = harness.trace(
                    name, args.seed, args.smoke, repeats[0]
                )
                correct = correct and entry["trace"]["difference"] is None
                attempted += entry["trace"]["attempted"]
                failed += entry["trace"]["failed"]
            else:
                entry, _ = harness.measure(
                    name,
                    args.seed,
                    args.smoke,
                    args.repeats or sizes["repeats"],
                    args.seconds,
                )
            attempted += entry["attempted"]
            failed += entry["failed"]
            result["workloads"][name] = entry
            report.print_workload(name, entry, sizes[name])
        if args.trace:
            overhead = _telemetry_overhead(names, references, args.seed, args.smoke)
            for name in names:
                values = result["workloads"][name]["trace"]["values"]
                values["telemetry.overhead_ms_per_op"] = (
                    overhead if name == "observed_quiet" else 0.0
                )
                report.print_trace(name, result["workloads"][name]["trace"])
        # One per-edge differential per stream workload; a single-workload
        # end-to-end run (what a driver repeats a hundred times) leaves it
        # to the traced run of the same workload.
        if args.trace or len(names) > 1:
            result["differential"] = _differential(names, args.seed)
            report.print_differential(result["differential"])
            correct = correct and not any(result["differential"].values())

    if args.layers or args.trace:
        result["layers"] = harness.layers(args.seed, args.smoke)
        report.print_layers(result["layers"])
        correct = correct and result["layers"]["identical"]

    correct = correct and failed == 0
    result.update(correct=correct, attempted=attempted, failed=failed)
    out = args.out
    if out is None and len(names) > 1 and not args.layers:
        out = "BENCH_perf.json"
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    summary: dict = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
    }
    if len(names) == 1 and not args.layers:
        summary["metrics"] = report.driver_metrics(
            result["workloads"][names[0]], result.get("layers"), bool(args.trace)
        )
    elif out is not None:
        summary["out"] = out
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    try:
        if argv[:1] == ["_child"]:
            print(json.dumps(harness.run_child_task(argv[1], json.loads(argv[2]))))
            return 0
        if argv[:1] == ["compare"]:
            return compare.main(argv[1:])
        return run(_parser().parse_args(argv))
    except spec.PerfBenchError as error:
        print(f"benchmarks.perf: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
