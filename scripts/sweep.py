#!/usr/bin/env python3
"""The sweep harness CLI: run, report, and diff declarative scenario sweeps.

Usage::

    python scripts/sweep.py list
    python scripts/sweep.py run e10_streaming e12_fault_tolerance [--smoke]
        [--out DIR] [--cache DIR] [--serial] [--force] [--expect-cached]
        [--baseline DIR] [--strict]
    python scripts/sweep.py report SWEEP_e10_streaming.json [...]
    python scripts/sweep.py diff baseline/SWEEP_x.json current/SWEEP_x.json
        [--rel-tolerance R] [--abs-tolerance A] [--strict]

``run`` accepts builtin spec names (see ``list``) or paths to ``.toml`` /
``.json`` spec files, executes each matrix through the cached fork pool,
and writes ``SWEEP_<name>.json`` + ``SWEEP_<name>.md`` into ``--out``.
``--smoke`` selects each builtin spec's smoke parameter set (the sizes CI
runs) instead of its full one; spec files have one parameter set and ignore it.
``--expect-cached`` exits non-zero if any cell actually executed — the CI
assertion that a re-run of an unchanged spec is a pure cache recall.
``--baseline DIR`` diffs each fresh payload against ``DIR/SWEEP_<name>.json``
right after the run; with ``--strict`` a missing or changed cell fails the
command (the CI sweep gate).

Exit codes: 0 ok, 1 strict-gate failure (missing/regressed cells),
2 usage/spec error, 3 ``--expect-cached`` saw fresh executions.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.exceptions import ConfigurationError  # noqa: E402
from repro.sweeps import (  # noqa: E402
    BUILTIN_SWEEPS,
    SweepRunner,
    diff_payloads,
    get_sweep,
    load_payload,
    load_spec,
    render_markdown,
    write_sweep_json,
    write_sweep_markdown,
)


def resolve_spec(token: str, smoke: bool = False):
    """A builtin sweep name, or a path to a .toml/.json spec file."""
    if token in BUILTIN_SWEEPS:
        return get_sweep(token, smoke=smoke)
    if os.path.exists(token):
        return load_spec(token)
    raise ConfigurationError(
        f"{token!r} is neither a builtin sweep ({sorted(BUILTIN_SWEEPS)}) "
        "nor a spec file"
    )


def cmd_list(_args) -> int:
    print("builtin sweeps:")
    for name in sorted(BUILTIN_SWEEPS):
        spec = get_sweep(name)
        cells = spec.expand()
        axes = ", ".join(
            f"{axis}({len(values)})" for axis, values in sorted(spec.axes.items())
        )
        print(
            f"  {name}: experiment={spec.experiment}, axes [{axes}], "
            f"{len(cells)} cell(s) after constraints"
        )
    return 0


def cmd_run(args) -> int:
    failures: list[str] = []
    executed_total = 0
    for token in args.spec:
        spec = resolve_spec(token, smoke=args.smoke)
        runner = SweepRunner(spec, cache_dir=args.cache, processes=0 if args.serial else None)
        result = runner.run(force=args.force)
        executed_total += result.executed
        payload = result.payload()
        json_path = write_sweep_json(payload, args.out)
        md_path = write_sweep_markdown(payload, args.out)
        print(
            f"sweep {spec.name}: {len(result.outcomes)} cell(s), "
            f"{result.executed} executed, {result.cached} cached "
            f"-> {json_path}, {md_path}"
        )
        if args.baseline:
            baseline_path = Path(args.baseline) / json_path.name
            if not baseline_path.exists():
                message = f"{spec.name}: no baseline at {baseline_path}"
                print(f"  {message}")
                if args.strict:
                    failures.append(message)
                continue
            diff = diff_payloads(
                load_payload(baseline_path),
                payload,
                rel_tolerance=args.rel_tolerance,
                abs_tolerance=args.abs_tolerance,
            )
            print("  " + diff.describe().replace("\n", "\n  "))
            if not diff.ok:
                failures.append(f"{spec.name}: baseline diff failed")
    if args.expect_cached and executed_total:
        print(
            f"--expect-cached: {executed_total} cell(s) executed, expected 0",
            file=sys.stderr,
        )
        return 3
    if failures and args.strict:
        for failure in failures:
            print(f"sweep gate: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    for path in args.payload:
        print(render_markdown(load_payload(path)))
    return 0


def cmd_diff(args) -> int:
    diff = diff_payloads(
        load_payload(args.baseline),
        load_payload(args.current),
        rel_tolerance=args.rel_tolerance,
        abs_tolerance=args.abs_tolerance,
    )
    print(diff.describe())
    if not diff.ok and args.strict:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="expand + execute sweep spec(s)")
    run.add_argument("spec", nargs="+", help="builtin sweep name or spec file path")
    run.add_argument(
        "--smoke",
        action="store_true",
        help="run builtin specs at their smoke parameter set (CI sizes)",
    )
    run.add_argument("--out", default=".", help="output directory for SWEEP_* files")
    run.add_argument("--cache", default=None, help="cell cache directory")
    run.add_argument("--serial", action="store_true", help="disable the fork pool")
    run.add_argument("--force", action="store_true", help="ignore cached cells")
    run.add_argument(
        "--expect-cached",
        action="store_true",
        help="fail (exit 3) if any cell executed instead of hitting the cache",
    )
    run.add_argument(
        "--baseline", default=None, help="directory of baseline SWEEP_*.json to diff"
    )
    run.add_argument("--strict", action="store_true", help="fail on baseline diffs")
    run.add_argument("--rel-tolerance", type=float, default=0.0)
    run.add_argument("--abs-tolerance", type=float, default=0.0)

    report = sub.add_parser("report", help="render SWEEP_*.json as markdown")
    report.add_argument("payload", nargs="+", help="SWEEP_<name>.json path(s)")

    diff = sub.add_parser("diff", help="compare two SWEEP_*.json payloads")
    diff.add_argument("baseline")
    diff.add_argument("current")
    diff.add_argument("--rel-tolerance", type=float, default=0.0)
    diff.add_argument("--abs-tolerance", type=float, default=0.0)
    diff.add_argument("--strict", action="store_true", help="exit 1 on differences")

    lister = sub.add_parser("list", help="list builtin sweep specs")
    lister.set_defaults(func=cmd_list)
    run.set_defaults(func=cmd_run)
    report.set_defaults(func=cmd_report)
    diff.set_defaults(func=cmd_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
