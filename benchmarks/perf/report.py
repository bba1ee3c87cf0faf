"""Plain-text tables for the terminal and the one-line driver summary."""

from __future__ import annotations

from benchmarks.perf import spec


def _number(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.1f}" if abs(value) >= 1000 else f"{value:.4f}"


def _table(title: str, header: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(str(cell)) for cell in column) for column in zip(header, *rows)
    ]
    print()
    print(title)
    for row in [header] + rows:
        print("  " + "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


def print_workload(name: str, entry: dict, size: dict) -> None:
    rows = []
    for metric in spec.END_TO_END:
        measured = entry["metrics"][metric.name]
        per_repeat = measured["repeats"]
        pooled = metric.name in ("op_ms_p50", "op_ms_p95")
        rows.append(
            [
                metric.name,
                metric.unit,
                _number(measured["value"]),
                f"{_number(min(per_repeat))} – {_number(max(per_repeat))}",
                entry["samples"] if pooled else len(per_repeat),
                "exact" if metric.bound == 0.0 else f"{metric.bound:.0%}",
            ]
        )
    shape = ", ".join(f"{key}={value:,}" for key, value in size.items())
    _table(
        f"{name}  ({shape}; {entry['ops_per_repeat']} timed ops x "
        f"{entry['repeats']} repeats) — {spec.workload(name).why}",
        ["metric", "unit", "value", "repeats min – max", "samples", "bound"],
        rows,
    )


def print_trace(name: str, trace: dict) -> None:
    values = trace["values"]
    rows = []
    for span in spec.SPANS + (spec.RUNNER_SELF,):
        calls = values.get(f"{span}.calls_per_op")
        rows.append(
            [
                span,
                _number(values[f"{span}.self_ms_per_op"]),
                "" if calls is None else _number(calls),
            ]
        )
    _table(
        f"{name}  per-layer spans, traced pass "
        f"(self times sum to {trace['self_time_sum_ms']:.4f} ms of a "
        f"{trace['op_ms_mean']:.4f} ms mean op)",
        ["span", "self ms/op", "calls/op"],
        rows,
    )
    _table(
        f"{name}  counters and ungated end-to-end metrics, traced pass",
        ["metric", "unit", "value"],
        [
            [m.name, m.unit, _number(values[m.name])]
            for m in spec.COUNTERS + spec.UNGATED
        ],
    )
    verdict = trace["difference"]
    print(
        "  verify: traced pass "
        + ("identical to the untraced pass" if verdict is None else f"DIFFERS — {verdict}")
    )


def print_differential(results: dict[str, str | None]) -> None:
    print()
    print(
        f"differential verify (n={spec.DIFF_NODES} x {spec.DIFF_EPOCHS} epochs, "
        "per-edge vs the workload's own execution)"
    )
    for name, difference in results.items():
        print(f"  {name}: " + ("identical" if difference is None else f"DIFFERS — {difference}"))


def print_layers(layers: dict) -> None:
    rows = []
    for metric in spec.LAYERS:
        measured = layers["metrics"][metric.name]
        rows.append(
            [
                metric.name,
                metric.unit,
                _number(measured["value"]),
                _number(measured["iqr"]),
                measured["rounds"],
            ]
        )
    _table(
        "isolated layer benches and the execution-path table",
        ["metric", "unit", "median", "IQR", "rounds"],
        rows,
    )
    print(f"  {layers['note']}")


def driver_metrics(entry: dict, layers: dict | None, traced: bool) -> dict:
    """``metrics`` of the driver summary: the gated end-to-end names for an
    untraced run, every per-layer name for a traced one."""
    if not traced:
        return {
            metric.name: {
                "value": entry["metrics"][metric.name]["value"],
                "unit": metric.unit,
            }
            for metric in spec.GATED
        }
    values = dict(entry["trace"]["values"])
    values.update({name: row["value"] for name, row in layers["metrics"].items()})
    return {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in spec.PER_LAYER
    }
