"""The cell adapter: one sweep cell in, one normalized record out.

An experiment kind maps straight to its study function in
:mod:`repro.analysis.experiments`; :func:`bind_cell` is the only adapter
between the sweep vocabulary and a study (it translates the sweep-wide
``n`` axis onto ``num_nodes``).  :func:`run_cell` binds a cell with a fresh
:class:`~repro.telemetry.SpanTracer` on the study's instrumented arm, calls
it, and returns a plain JSON-safe dict:

``measures``
    The study's :class:`~repro.analysis.experiments.StudyResult` measures,
    verbatim — deterministic simulation results (bits, fitted exponents,
    savings factors, answer errors).  Same seed, same numbers, on every machine and under
    any process fan-out; this is the section ``sweep diff`` compares.
``timing``
    Wall-clock observations.  Recorded for humans, ignored by the diff.
``phases``
    The telemetry phase breakdown (:func:`repro.telemetry.phases_payload`)
    — keyed by span name, so a sweep cell's span taxonomy maps 1:1 onto
    ``docs/TELEMETRY.md``.

A cell's parameters are bound against the study's signature before
anything runs: a missing or misspelt key is a ``ConfigurationError`` naming
the study and the key, so a typo in a spec never silently runs a default.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Any, Callable

from repro.analysis.experiments import (
    StudyResult,
    run_apx_count_study,
    run_apx_median_study,
    run_baseline_comparison,
    run_count_distinct_study,
    run_disjointness_study,
    run_exact_median_study,
    run_fault_tolerance_study,
    run_multitenant_study,
    run_polyloglog_study,
    run_primitive_aggregates_study,
    run_root_failover_study,
    run_scaling_study,
    run_streaming_comparison,
)
from repro.exceptions import ConfigurationError
from repro.telemetry import SpanTracer, phases_payload

#: The experiment-kind registry sweep specs select from.
CELL_RUNNERS: dict[str, Callable[..., StudyResult]] = {
    "primitive_aggregates": run_primitive_aggregates_study,
    "apx_count": run_apx_count_study,
    "exact_median": run_exact_median_study,
    "apx_median": run_apx_median_study,
    "polyloglog_median": run_polyloglog_study,
    "count_distinct": run_count_distinct_study,
    "disjointness": run_disjointness_study,
    "baseline_comparison": run_baseline_comparison,
    "streaming": run_streaming_comparison,
    "fault_tolerance": run_fault_tolerance_study,
    "root_failover": run_root_failover_study,
    "scaling": run_scaling_study,
    "multitenant": run_multitenant_study,
}


def runner_for(experiment: str) -> Callable[..., StudyResult]:
    """Resolve an experiment kind, failing loudly with the known list."""
    try:
        return CELL_RUNNERS[experiment]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment kind {experiment!r}; "
            f"known: {sorted(CELL_RUNNERS)}"
        ) from None


def bind_cell(experiment: str, params: dict[str, Any], **extra) -> Callable[[], StudyResult]:
    """The study call one cell stands for, checked against the study's signature.

    ``extra`` are keyword arguments a cell's parameters never carry
    (``telemetry=``): :func:`run_cell` passes its tracer, a claim test that
    needs the traces or its own recorder passes that.
    """
    study = runner_for(experiment)
    params = dict(params)
    if "n" in params:
        if "num_nodes" in params:
            raise ConfigurationError(
                f"{experiment}: give either 'n' or 'num_nodes', not both"
            )
        params["num_nodes"] = params.pop("n")
    try:
        inspect.signature(study).bind(**params, **extra)
    except TypeError as error:
        raise ConfigurationError(f"{experiment}: {error}") from None
    return functools.partial(study, **params, **extra)


def run_cell(experiment: str, params: dict[str, Any]) -> dict:
    """Execute one cell: its study's measures, timing and phase breakdown."""
    tracer = SpanTracer()
    study = bind_cell(experiment, params, telemetry=tracer)
    started = time.perf_counter()
    result = study()
    return {
        "measures": result.measures,
        "timing": {
            **result.timing,
            "cell_seconds": round(time.perf_counter() - started, 4),
        },
        "phases": phases_payload(tracer),
    }
