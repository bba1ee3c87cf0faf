"""``compare A.json B.json`` — did B regress against A, metric by metric?

One verdict per workload x end-to-end metric:

* exact counts (bound 0) are compared with ``==``;
* a timing is judged on the medians against its fixed bound — unless the
  repeats of either side spread wider than that bound, in which case it is
  ``unresolved`` unless every repeat of one side beats every repeat of the
  other (then the direction is clear whatever the noise).

Exits non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys

from benchmarks.perf import spec

def _worsening(metric: spec.Metric, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    if parent == 0:
        if change == 0:
            return 0.0
        worse = (change > 0) == (metric.better == "lower")
        return math.inf if worse else -math.inf
    delta = (change - parent) / abs(parent)
    return delta if metric.better == "lower" else -delta


def _spread(values: list[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / abs(middle) if middle else 0.0


def verdict(metric: spec.Metric, parent: dict, change: dict) -> str:
    """Verdict for one metric given ``{"value", "repeats"}`` of each side."""
    worse_by = _worsening(metric, parent["value"], change["value"])
    if metric.bound == 0.0:
        if worse_by == 0:
            return "unchanged"
        return "regressed" if worse_by > 0 else "improved"
    if max(_spread(parent["repeats"]), _spread(change["repeats"])) > metric.bound:
        lower_is_better = metric.better == "lower"
        a, b = parent["repeats"], change["repeats"]
        change_wins = max(b) < min(a) if lower_is_better else min(b) > max(a)
        parent_wins = max(a) < min(b) if lower_is_better else min(a) > max(b)
        if not (change_wins or parent_wins):
            return "unresolved"
    if worse_by > metric.bound:
        return "regressed"
    return "improved" if worse_by < -metric.bound else "unchanged"


def compare(parent: dict, change: dict) -> list[tuple[str, str, str, float]]:
    """``(workload, metric, verdict, worsening)`` rows for two result files."""
    if not (parent.get("comparable") and change.get("comparable")):
        raise spec.PerfBenchError("a --smoke result is not comparable")
    rows = []
    for side in (parent, change):  # a file from another benchmark is an error
        for name, entry in side["workloads"].items():
            spec.workload(name)
            for metric_name in entry["metrics"]:
                spec.metric(metric_name)
    for name in spec.WORKLOAD_NAMES:
        if name not in parent["workloads"] or name not in change["workloads"]:
            continue
        for metric in spec.END_TO_END:
            a = parent["workloads"][name]["metrics"][metric.name]
            b = change["workloads"][name]["metrics"][metric.name]
            rows.append(
                (
                    name,
                    metric.name,
                    verdict(metric, a, b),
                    _worsening(metric, a["value"], b["value"]),
                )
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.perf compare PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    sides = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    rows = compare(*sides)
    width = max(len(metric) for _, metric, _, _ in rows)
    for name, metric, outcome, worse_by in rows:
        if worse_by == 0:
            change = "same"
        elif worse_by > 0:
            change = f"{worse_by:.2%} worse"
        else:
            change = f"{-worse_by:.2%} better"
        print(f"{name:<15} {metric:<{width}} {outcome:<10} {change}")
    regressed = sum(1 for row in rows if row[2] == "regressed")
    print(f"{regressed} regressed of {len(rows)}")
    return 1 if regressed else 0
