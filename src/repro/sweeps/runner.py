"""The sweep executor: content-addressed caching plus a fork worker pool.

Execution strategy, in the worker pattern of
:class:`repro.network.sharding.ShardRunner`:

1. :meth:`SweepRunner.run` expands the spec, then partitions the matrix
   into *cached* cells (a valid result file exists under the cell's
   content hash) and *missing* cells.
2. Missing cells are executed through a ``multiprocessing`` fork pool —
   cells are independent seeded simulations, so they parallelise
   embarrassingly — or inline when fork is unavailable, when
   ``REPRO_SWEEP_PROCESSES=0``, or when only one cell is missing.
   Serial and parallel execution produce identical results (asserted in
   ``tests/test_sweeps.py``): every cell runner is deterministic in its
   parameters and shares no state with its siblings.
3. Each fresh result is written back to the cache, keyed by
   :func:`repro.sweeps.spec.cell_key`.  Editing one axis value therefore
   re-executes only the new cells; re-running an unchanged spec executes
   zero.

Cache entries self-describe (key, experiment, parameters, result); a
corrupt or mismatched file is treated as a miss and silently re-executed,
never trusted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import ConfigurationError
from repro.sweeps.cells import run_cell, runner_for
from repro.sweeps.spec import SweepCell, SweepSpec, cell_key

#: Default on-disk cache location, overridable per-runner or via env.
DEFAULT_CACHE_DIR = ".sweep-cache"


@dataclass(frozen=True)
class CellOutcome:
    """One executed-or-recalled cell and where its result came from."""

    cell: SweepCell
    result: dict[str, Any]
    cached: bool


@dataclass(frozen=True)
class SweepResult:
    """The outcome of one :meth:`SweepRunner.run` call."""

    spec: SweepSpec
    outcomes: list[CellOutcome]

    @property
    def executed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.cached)

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def payload(self) -> dict:
        """The normalized ``SWEEP_<name>.json`` payload (see ``report``)."""
        from repro.sweeps.report import normalize

        return normalize(self.spec, self.outcomes)


def _run_cell_task(task: tuple[str, dict]) -> dict:
    """Pool worker entry point: one (experiment, params) cell."""
    experiment, params = task
    return run_cell(experiment, params)


class SweepRunner:
    """Execute a sweep spec with per-cell disk caching and a fork pool."""

    def __init__(
        self,
        spec: SweepSpec,
        cache_dir: "str | Path | None" = None,
        processes: int | None = None,
    ) -> None:
        self.spec = spec
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_SWEEP_CACHE", DEFAULT_CACHE_DIR)
        self.cache_dir = Path(cache_dir)
        if processes is None:
            env = os.environ.get("REPRO_SWEEP_PROCESSES")
            if env is not None and not env.isdecimal():
                raise ConfigurationError(
                    f"REPRO_SWEEP_PROCESSES must be a non-negative integer "
                    f"(0 runs cells inline), got {env!r}"
                )
            processes = int(env) if env is not None else None
        self._processes = processes

    # ------------------------------------------------------------------ #
    # Cache
    # ------------------------------------------------------------------ #
    def _cache_path(self, cell: SweepCell) -> Path:
        return self.cache_dir / f"{cell.key}.json"

    def cached_result(self, cell: SweepCell) -> "dict | None":
        """The cell's cached result, or ``None`` on miss/corruption.

        An entry is recalled only if it describes this very cell (its
        experiment and parameters hash to the cell's key) and its result has
        the shape
        :func:`~repro.sweeps.cells.run_cell` returns; anything else is a
        miss, so the cell re-executes and overwrites it.
        """
        path = self._cache_path(cell)
        if not path.exists():
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict):
            return None
        params, result = entry.get("params"), entry.get("result")
        if (
            not isinstance(params, dict)
            or cell_key(entry.get("experiment"), params) != cell.key
            or not isinstance(result, dict)
            or not isinstance(result.get("measures"), dict)
        ):
            return None
        return result

    def _store(self, cell: SweepCell, result: dict) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": cell.key,
            "experiment": cell.experiment,
            "params": cell.params,
            "result": result,
        }
        path = self._cache_path(cell)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _execute(self, cells: list[SweepCell]) -> list[dict]:
        tasks = [(cell.experiment, cell.params) for cell in cells]
        processes = self._processes
        if processes is None:
            processes = min(len(tasks), max(2, os.cpu_count() or 1))
        if processes <= 1 or len(tasks) <= 1:
            return [_run_cell_task(task) for task in tasks]
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - no fork on this platform
            return [_run_cell_task(task) for task in tasks]
        with context.Pool(processes=processes) as pool:
            return pool.map(_run_cell_task, tasks)

    def run(self, force: bool = False) -> SweepResult:
        """Expand, recall cached cells, execute the rest, cache them.

        ``force`` ignores (and overwrites) existing cache entries.
        Outcomes come back in matrix order regardless of which cells were
        cached or how the pool scheduled the rest.
        """
        cells = self.spec.expand()
        for cell in cells:
            runner_for(cell.experiment)  # fail on unknown kinds before work
        recalled: dict[int, dict] = {}
        missing: list[SweepCell] = []
        for cell in cells:
            result = None if force else self.cached_result(cell)
            if result is None:
                missing.append(cell)
            else:
                recalled[cell.index] = result
        fresh = {
            cell.index: result
            for cell, result in zip(missing, self._execute(missing))
        }
        for cell in missing:
            self._store(cell, fresh[cell.index])
        outcomes = [
            CellOutcome(
                cell=cell,
                result=recalled.get(cell.index, fresh.get(cell.index)),
                cached=cell.index in recalled,
            )
            for cell in cells
        ]
        return SweepResult(spec=self.spec, outcomes=outcomes)


def run_sweep(
    spec: SweepSpec,
    cache_dir: "str | Path | None" = None,
    processes: int | None = None,
    force: bool = False,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(spec, cache_dir=cache_dir, processes=processes).run(
        force=force
    )
