#!/usr/bin/env python
"""Diagnose a telemetry JSONL trace: flag anomalous epochs, print *why*.

Usage::

    python scripts/diagnose.py TELEMETRY_faults.jsonl
    python scripts/diagnose.py TELEMETRY_faults.jsonl --strict
    python scripts/diagnose.py TELEMETRY_faults.jsonl --json

Runs :func:`repro.telemetry.diagnose` over the trace: per-epoch series
(bits, detection latency) go through a rolling median/MAD anomaly
detector, and each flagged epoch's causal chain is walked backwards
through the flight-recorder events to a root cause::

    epoch 6: bits 3035 (baseline 0, 262.8x MAD)
      RootCrash(node 0) at e6 -> election 0->35 at e6
      top hotspot: node 3 (255 bits, 4% of epoch node-bits)

Exit status: **2** for a missing, empty, or corrupt trace file; **1**
under ``--strict`` when any flagged epoch has *no* attributable cause
chain (the CI trajectory gate: a cost spike nothing in the flight ring
explains); **0** otherwise.  ``--json`` prints the machine-readable
verdict instead of the report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exceptions import TraceFormatError  # noqa: E402
from repro.telemetry import diagnose, read_jsonl, verdict  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Explain anomalous epochs of a telemetry JSONL trace."
    )
    parser.add_argument("trace", help="path to the telemetry JSONL file")
    parser.add_argument(
        "--window",
        type=int,
        default=5,
        help="trailing epochs the median/MAD baseline uses (default: 5)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=4.0,
        help="MAD multiples above baseline that flag an epoch (default: 4)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=3,
        help="epochs to look back for a cause event (default: 3)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any flagged epoch has no attributable cause chain",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the verdict dict as JSON instead of the report",
    )
    args = parser.parse_args(argv)

    path = Path(args.trace)
    if not path.exists():
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return 2
    try:
        records = list(read_jsonl(path))
    except TraceFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not records:
        print(f"error: {path} is empty — no trace was written", file=sys.stderr)
        return 2

    diagnosis = diagnose(
        records,
        window=args.window,
        threshold=args.threshold,
        horizon=args.horizon,
    )
    if args.json:
        print(json.dumps(verdict(diagnosis), indent=2, sort_keys=True))
    else:
        print(diagnosis.render())
    if args.strict and diagnosis.unattributed:
        print(
            f"strict: {len(diagnosis.unattributed)} anomalous epoch(s) have "
            "no attributable cause chain",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
