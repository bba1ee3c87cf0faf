"""The sweep executor: content-addressed caching plus a fork worker pool.

Execution strategy:

1. :meth:`SweepRunner.run` expands the spec, then partitions the matrix
   into *cached* cells (a valid result file exists under the cell's
   content hash) and *missing* cells.
2. Missing cells are executed through a fork
   :class:`~concurrent.futures.ProcessPoolExecutor` — cells are
   independent seeded simulations, so they parallelise embarrassingly — or
   inline when fork is unavailable, when ``REPRO_SWEEP_PROCESSES=0``, or
   when only one cell is missing.  Serial and parallel execution produce
   identical results (asserted in ``tests/test_sweeps.py``): every cell
   runner is deterministic in its parameters and shares no state with its
   siblings.
3. Each fresh result is written to the cache as soon as it arrives, keyed
   by :func:`repro.sweeps.spec.cell_key`.  Editing one axis value therefore
   re-executes only the new cells; re-running an unchanged spec executes
   zero.  A worker that dies (killed, out of memory) breaks the pool
   instead of hanging it: the cells that finished stay cached and
   :class:`~repro.exceptions.SweepWorkerError` names the rest, so a re-run
   executes only those.

Cache entries self-describe (key, experiment, parameters, result); a
corrupt or mismatched file is treated as a miss and silently re-executed,
never trusted.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.exceptions import ConfigurationError, SweepWorkerError
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


def _run_cell_task(experiment: str, params: dict) -> dict:
    """Pool worker entry point: one (experiment, params) cell."""
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
    def _execute(self, cells: list[SweepCell]) -> Iterator[tuple[SweepCell, dict]]:
        """Run ``cells``, yielding ``(cell, result)`` as each one finishes."""
        processes = self._processes
        if processes is None:
            processes = min(len(cells), max(2, os.cpu_count() or 1))
        if (
            processes <= 1
            or len(cells) <= 1
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            for cell in cells:
                yield cell, _run_cell_task(cell.experiment, cell.params)
            return
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(processes, mp_context=context) as pool:
            pending = {
                pool.submit(_run_cell_task, cell.experiment, cell.params): cell
                for cell in cells
            }
            try:
                for future in as_completed(pending):
                    result = future.result()
                    yield pending.pop(future), result
            except BrokenProcessPool as error:
                # A dead worker fails every future still in flight; the ones
                # that finished before it did still hold their results.
                for future in [f for f in pending if f.done() and f.exception() is None]:
                    yield pending.pop(future), future.result()
                unfinished = sorted(pending.values(), key=lambda cell: cell.index)
                raise SweepWorkerError(
                    f"sweep {self.spec.name!r}: a worker process died before "
                    f"{len(unfinished)} cell(s) finished: "
                    + "; ".join(cell.cell_id for cell in unfinished)
                    + ".  Every other cell is cached; re-run to execute these."
                ) from error
            finally:
                for future in pending:
                    future.cancel()

    def run(self, force: bool = False) -> SweepResult:
        """Expand, recall cached cells, execute the rest, cache them.

        ``force`` ignores (and overwrites) existing cache entries.
        Outcomes come back in matrix order regardless of which cells were
        cached or how the pool scheduled the rest.  A worker process that
        dies raises :class:`~repro.exceptions.SweepWorkerError` once every
        cell that did finish is cached.
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
        fresh: dict[int, dict] = {}
        for cell, result in self._execute(missing):
            self._store(cell, result)
            fresh[cell.index] = result
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
