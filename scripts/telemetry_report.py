#!/usr/bin/env python
"""Render a telemetry JSONL trace as the phase dashboard.

Usage::

    python scripts/telemetry_report.py TELEMETRY_run.jsonl
    python scripts/telemetry_report.py TELEMETRY_run.jsonl --format prometheus

Reads the span/metrics JSONL a :class:`repro.telemetry.SpanTracer` writes
(``tracer.write_jsonl(path)``) and prints

* the **phase table** — spans aggregated by name: how often each phase ran,
  its wall-clock, its inclusive and exclusive communication bits, and the
  worst single-node bit delta inside it (the paper's per-node cost measure,
  scoped per phase);
* the **metrics dashboard** — every counter/gauge/histogram the run
  recorded, as markdown tables (or, with ``--format prometheus``, in the
  Prometheus text exposition format for scraping/diffing).

Exit status is non-zero when the file contains no span lines, so CI smoke
runs fail loudly on an empty or mangled trace.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.report import format_table  # noqa: E402
from repro.exceptions import TraceFormatError  # noqa: E402
from repro.telemetry import MetricsRegistry, read_jsonl  # noqa: E402


def summarize_spans(spans: list[dict]) -> list[list]:
    """Aggregate span dicts by name into the phase-table rows."""
    summary: dict[str, dict] = {}
    for span in spans:
        row = summary.setdefault(
            span["name"],
            {
                "count": 0,
                "wall_s": 0.0,
                "bits": 0,
                "exclusive_bits": 0,
                "messages": 0,
                "max_node_bits": 0,
                "failed": 0,
            },
        )
        row["count"] += 1
        row["wall_s"] += span.get("wall_s", 0.0)
        row["bits"] += span.get("bits", 0)
        row["exclusive_bits"] += span.get("exclusive_bits", 0)
        row["messages"] += span.get("messages", 0)
        row["max_node_bits"] = max(
            row["max_node_bits"], span.get("max_node_bits", 0)
        )
        row["failed"] += 1 if span.get("failed") else 0
    rows = []
    for name in sorted(summary, key=lambda n: -summary[n]["bits"]):
        row = summary[name]
        rows.append(
            [
                name,
                row["count"],
                f"{row['wall_s']:.4f}",
                row["bits"],
                row["exclusive_bits"],
                row["messages"],
                row["max_node_bits"],
                row["failed"] or "",
            ]
        )
    return rows


def rebuild_registry(metrics_dump: dict) -> MetricsRegistry:
    """Re-hydrate a :class:`MetricsRegistry` from its ``to_dict()`` dump.

    Counters and gauges restore exactly.  Histogram *distributions* cannot
    be replayed from bucket counts, so each series is restored as its
    summary statistics: the count, sum, min and max survive (which is what
    the dashboards render); bucket detail is approximated by re-observing
    the recorded extremes and mean.
    """
    registry = MetricsRegistry()
    for name, series in metrics_dump.get("counters", {}).items():
        for entry in series:
            registry.count(name, entry["value"], **entry.get("labels", {}))
    for name, series in metrics_dump.get("gauges", {}).items():
        for entry in series:
            registry.gauge(name, entry["value"], **entry.get("labels", {}))
    for name, series in metrics_dump.get("histograms", {}).items():
        for entry in series:
            labels = entry.get("labels", {})
            count = entry.get("count", 0)
            if count <= 0:
                continue
            total = entry.get("sum", 0.0)
            minimum = entry.get("min")
            maximum = entry.get("max")
            observations = []
            if minimum is not None:
                observations.append(minimum)
            if maximum is not None and count > 1:
                observations.append(maximum)
            while len(observations) < count:
                remaining = count - len(observations)
                observations.append(
                    (total - sum(observations)) / remaining
                )
            for value in observations:
                registry.observe(name, value, **labels)
    return registry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render a SpanTracer JSONL trace as the phase dashboard."
    )
    parser.add_argument("trace", help="path to the telemetry JSONL file")
    parser.add_argument(
        "--format",
        choices=("markdown", "prometheus"),
        default="markdown",
        help="metrics output format (default: markdown)",
    )
    parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="print the phase table only",
    )
    args = parser.parse_args(argv)

    path = Path(args.trace)
    if not path.exists():
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return 2
    spans: list[dict] = []
    metrics_dump: dict | None = None
    lines = 0
    try:
        for line in read_jsonl(path):
            lines += 1
            kind = line.get("type")
            if kind == "span":
                spans.append(line)
            elif kind == "metrics":
                metrics_dump = line.get("metrics")
    except TraceFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if lines == 0:
        print(f"error: {path} is empty — no trace was written", file=sys.stderr)
        return 2
    if not spans:
        print(f"error: {path} contains no span lines", file=sys.stderr)
        return 1

    total_wall = sum(span.get("wall_s", 0.0) for span in spans if span.get("depth") == 0)
    total_bits = sum(
        span.get("exclusive_bits", 0) for span in spans
    )
    print(
        format_table(
            [
                "phase",
                "count",
                "wall s",
                "bits",
                "excl bits",
                "messages",
                "max node",
                "failed",
            ],
            summarize_spans(spans),
            title=(
                f"Phase dashboard — {len(spans)} spans, "
                f"{total_wall:.4f}s top-level wall-clock, "
                f"{total_bits} bits charged"
            ),
        )
    )
    if metrics_dump is not None and not args.no_metrics:
        registry = rebuild_registry(metrics_dump)
        print()
        if args.format == "prometheus":
            print(registry.render_prometheus(), end="")
        else:
            print(registry.render_markdown(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
