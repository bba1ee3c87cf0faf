"""Normalize sweep outcomes into CI-diffable JSON and markdown reports.

One sweep run folds into one ``SWEEP_<name>.json``: the spec (axes, base,
constraints), execution counts, and one record per cell — parameters, the
deterministic ``measures``, machine-dependent ``timing``, and the
telemetry ``phases`` breakdown.  Cells are ordered by ``cell_id`` so the
file is stable under matrix edits, and :func:`diff_payloads` compares only
the ``measures`` section (bits, savings, errors — deterministic under the
seeded simulator), never wall-clock, so a committed baseline stays
meaningful across machines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.sweeps.runner import CellOutcome
from repro.sweeps.spec import SweepSpec


def normalize(spec: SweepSpec, outcomes: Iterable[CellOutcome]) -> dict:
    """Fold a run's outcomes into the ``SWEEP_<name>.json`` payload."""
    outcomes = list(outcomes)
    cells = [
        {
            "cell_id": outcome.cell.cell_id,
            "key": outcome.cell.key,
            "cached": outcome.cached,
            "params": outcome.cell.params,
            "measures": outcome.result.get("measures", {}),
            "timing": outcome.result.get("timing", {}),
            "phases": outcome.result.get("phases", {}),
        }
        for outcome in outcomes
    ]
    cells.sort(key=lambda cell: cell["cell_id"])
    return {
        "sweep": spec.name,
        "experiment": spec.experiment,
        "spec": spec.to_dict(),
        "cell_count": len(cells),
        "executed": sum(1 for outcome in outcomes if not outcome.cached),
        "cached": sum(1 for outcome in outcomes if outcome.cached),
        "cells": cells,
    }


def write_sweep_json(payload: dict, out_dir: "str | Path" = ".") -> Path:
    """Write ``SWEEP_<name>.json`` into ``out_dir`` and return the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"SWEEP_{payload['sweep']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _format(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_markdown(payload: dict) -> str:
    """The sweep report: header, axes, and one measures row per cell."""
    lines = [
        f"# Sweep `{payload['sweep']}` — experiment `{payload['experiment']}`",
        "",
        f"{payload['cell_count']} cell(s): {payload['executed']} executed, "
        f"{payload['cached']} from cache.",
        "",
    ]
    axes = payload.get("spec", {}).get("axes", {})
    if axes:
        lines.append("| axis | values |")
        lines.append("| --- | --- |")
        for axis in sorted(axes):
            values = ", ".join(_format(value) for value in axes[axis])
            lines.append(f"| {axis} | {values} |")
        lines.append("")
    cells = payload.get("cells", [])
    columns = sorted({key for cell in cells for key in cell.get("measures", {})})
    if cells and columns:
        lines.append("| cell | " + " | ".join(columns) + " |")
        lines.append("| --- |" + " --- |" * len(columns))
        for cell in cells:
            measures = cell.get("measures", {})
            row = " | ".join(_format(measures.get(column)) for column in columns)
            lines.append(f"| {cell['cell_id']} | {row} |")
        lines.append("")
    return "\n".join(lines)


def write_sweep_markdown(payload: dict, out_dir: "str | Path" = ".") -> Path:
    """Write ``SWEEP_<name>.md`` next to the JSON and return the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"SWEEP_{payload['sweep']}.md"
    path.write_text(render_markdown(payload), encoding="utf-8")
    return path


@dataclass(frozen=True)
class SweepDiff:
    """Baseline-vs-current comparison of two sweep payloads.

    ``changed`` rows are ``(cell_id, measure, baseline, current)``.  New
    cells (in current but not baseline) are coverage growth, not a
    failure; missing cells and changed measures are what the ``--strict``
    CI gate refuses.
    """

    sweep: str
    missing_cells: tuple = ()
    new_cells: tuple = ()
    changed: tuple = ()
    notes: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.missing_cells and not self.changed

    def describe(self) -> str:
        if self.ok and not self.new_cells:
            return f"sweep {self.sweep}: baseline and current agree"
        lines = [f"sweep {self.sweep}:"]
        for cell in self.missing_cells:
            lines.append(f"  MISSING cell {cell} (in baseline, not in current)")
        for cell in self.new_cells:
            lines.append(f"  new cell {cell}")
        for cell_id, measure, old, new in self.changed:
            lines.append(
                f"  CHANGED {cell_id}: {measure} {_format(old)} -> {_format(new)}"
            )
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def diff_payloads(
    baseline: dict,
    current: dict,
    rel_tolerance: float = 0.0,
    abs_tolerance: float = 0.0,
) -> SweepDiff:
    """Compare two sweep payloads cell by cell, measures only.

    The simulator is deterministic under a seed, so the default tolerance
    is exact equality; a nonzero ``rel_tolerance``/``abs_tolerance`` admits
    bounded drift for measures that are only statistically stable.
    """
    notes = []
    if baseline.get("sweep") != current.get("sweep"):
        notes.append(
            f"comparing different sweeps: {baseline.get('sweep')!r} vs "
            f"{current.get('sweep')!r}"
        )
    base_cells = {cell["cell_id"]: cell for cell in baseline.get("cells", [])}
    curr_cells = {cell["cell_id"]: cell for cell in current.get("cells", [])}
    missing = tuple(sorted(set(base_cells) - set(curr_cells)))
    new = tuple(sorted(set(curr_cells) - set(base_cells)))
    changed = []
    for cell_id in sorted(set(base_cells) & set(curr_cells)):
        old_measures = base_cells[cell_id].get("measures", {})
        new_measures = curr_cells[cell_id].get("measures", {})
        for measure in sorted(set(old_measures) | set(new_measures)):
            old = old_measures.get(measure)
            new_value = new_measures.get(measure)
            if isinstance(old, (int, float)) and isinstance(
                new_value, (int, float)
            ) and not isinstance(old, bool) and not isinstance(new_value, bool):
                if math.isfinite(old) and math.isfinite(new_value):
                    budget = abs_tolerance + rel_tolerance * abs(old)
                    moved = abs(new_value - old) > budget
                else:
                    # NaN / ±inf never pass a tolerance test (every comparison
                    # with NaN is false): unchanged only if identical.
                    both_nan = math.isnan(old) and math.isnan(new_value)
                    moved = not both_nan and old != new_value
                if moved:
                    changed.append((cell_id, measure, old, new_value))
            elif old != new_value:
                changed.append((cell_id, measure, old, new_value))
    return SweepDiff(
        sweep=str(current.get("sweep", baseline.get("sweep", "?"))),
        missing_cells=missing,
        new_cells=new,
        changed=tuple(changed),
        notes=tuple(notes),
    )


def load_payload(path: "str | Path") -> dict:
    """Load one ``SWEEP_<name>.json`` file."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
