"""The declarative scenario-sweep harness.

The ROADMAP's "one more scenario = one spec line" refactor: a
:class:`SweepSpec` declares axes (topology, radio, execution mode, fault
scenario, detector period, workload, ``n``, ``seed``, …) and constraint
filters; :class:`SweepRunner` expands it into a run matrix and executes it
through a fork pool with content-hashed per-cell result caching; the
normalizer folds every cell's measures and telemetry phase breakdown into
one ``SWEEP_<name>.json`` plus a markdown report, and :func:`diff_payloads`
compares runs against a committed baseline — the CI sweep gate.

``scripts/sweep.py`` is the CLI (``run`` / ``report`` / ``diff`` /
``list``); ``docs/SWEEPS.md`` documents the spec schema and the caching
semantics.
"""

from repro.sweeps.cells import CELL_RUNNERS, bind_cell, run_cell, runner_for
from repro.sweeps.report import (
    SweepDiff,
    diff_payloads,
    load_payload,
    normalize,
    render_markdown,
    write_sweep_json,
    write_sweep_markdown,
)
from repro.sweeps.runner import CellOutcome, SweepResult, SweepRunner, run_sweep
from repro.sweeps.spec import (
    CACHE_VERSION,
    Constraint,
    SweepCell,
    SweepSpec,
    cell_key,
    load_spec,
    spec_from_dict,
)
from repro.sweeps.specs import BUILTIN_SWEEPS, get_sweep

__all__ = [
    "BUILTIN_SWEEPS",
    "CACHE_VERSION",
    "CELL_RUNNERS",
    "CellOutcome",
    "Constraint",
    "SweepCell",
    "SweepDiff",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "bind_cell",
    "cell_key",
    "diff_payloads",
    "get_sweep",
    "load_payload",
    "load_spec",
    "normalize",
    "render_markdown",
    "run_cell",
    "run_sweep",
    "runner_for",
    "spec_from_dict",
    "write_sweep_json",
    "write_sweep_markdown",
]
