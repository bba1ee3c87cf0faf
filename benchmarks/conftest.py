"""Shared helpers for the benchmark harness.

Every benchmark runs its experiment exactly once per pytest-benchmark round
(``rounds=1, iterations=1``): the quantity of interest is the *communication*
measured inside the simulation, not the wall-clock time of the simulator, so
repeated timing adds nothing.  Results that reproduce the paper's claims are
attached to ``benchmark.extra_info`` (visible in ``--benchmark-verbose`` /
JSON output) and printed as plain-text tables (visible with ``-s``).

Each claim bench has exactly two parameter sets, *full* (the sizes README
quotes) and *smoke* (the sizes CI runs), selected by the one ``--smoke``
option; wall-clock floors are asserted only at full size, because timing
on shared smoke runners is noise.
"""

from __future__ import annotations

import json
import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        help="run every claim bench at its smoke parameter set (CI sizes)",
    )


@pytest.fixture
def smoke(request) -> bool:
    """Whether this session runs the smoke parameter sets (``--smoke``)."""
    return request.config.getoption("--smoke")


def run_once(benchmark, function, *args, **kwargs):
    """Execute ``function`` once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, iterations=1, rounds=1)


@pytest.fixture
def bench_once():
    """Fixture wrapper around :func:`run_once` for terser benchmark bodies."""
    return run_once


def emit_bench_json(
    name: str,
    *,
    n: int,
    wall_clock_s: float,
    bits: int,
    metrics: dict[str, dict[str, float]] | None = None,
    phases: dict[str, dict[str, float]] | None = None,
    anomaly: dict | None = None,
) -> str:
    """Write (or merge into) ``BENCH_<name>.json`` for the CI perf gate.

    Every benchmark records its headline numbers — problem size, wall-clock
    of the measured sweep, simulated bits — plus named ``metrics`` of the
    form ``{"savings": {"value": 15.3, "floor": 5.0}}``.  The CI ``bench``
    matrix uploads these files as artifacts and the ``bench-report`` step
    (``benchmarks/report.py``) fails the build when any metric regresses
    below its floor, so the performance trajectory is tracked run over run.

    ``phases`` optionally attaches the telemetry phase breakdown — per
    pipeline phase, its wall-clock and communication bits (the shape
    :func:`phases_from_tracer` produces from a
    :class:`repro.telemetry.SpanTracer`) — which ``benchmarks/report.py``
    schema-checks and renders alongside the metric floors.  ``anomaly``
    optionally attaches the :func:`repro.telemetry.verdict` of the run's
    diagnosis (flagged epochs, how many had attributable cause chains),
    schema-checked the same way.

    Multiple tests in one benchmark file share a file: metrics accumulate
    across the calls of the *current* pytest session (never from a stale
    file on disk — a rerun that measures fewer metrics must not inherit
    last run's passing numbers), and the scalar headline fields are taken
    from the latest caller.  The output directory defaults to the working
    directory; CI points ``REPRO_BENCH_JSON_DIR`` at the artifact staging
    area.
    """
    report = _SESSION_REPORTS.setdefault(name, {"name": name, "metrics": {}})
    report["n"] = n
    report["wall_clock_s"] = round(wall_clock_s, 4)
    report["bits"] = bits
    report["metrics"].update(metrics or {})
    if phases:
        report.setdefault("phases", {}).update(phases)
    if anomaly is not None:
        report["anomaly"] = anomaly
    out_dir = os.environ.get("REPRO_BENCH_JSON_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def phases_from_tracer(tracer) -> dict[str, dict[str, float]]:
    """The ``phases`` section of a bench report, from a tracer's spans.

    Delegates to :func:`repro.telemetry.phases_payload` — the same fold the
    sweep harness (`repro.sweeps`) applies to every cell, so bench reports
    and sweep reports stay schema-compatible.
    """
    from repro.telemetry import phases_payload

    return phases_payload(tracer)


def emit_telemetry_jsonl(name: str, tracer) -> str:
    """Write ``TELEMETRY_<name>.jsonl`` next to the bench JSON artifacts.

    The full span + metrics trace of an instrumented benchmark run, in the
    JSONL format ``scripts/telemetry_report.py`` renders; CI uploads these
    alongside the ``BENCH_*.json`` files and smoke-renders one.
    """
    out_dir = os.environ.get("REPRO_BENCH_JSON_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"TELEMETRY_{name}.jsonl")
    tracer.write_jsonl(path)
    return path


#: Per-process accumulator backing :func:`emit_bench_json`.
_SESSION_REPORTS: dict[str, dict] = {}
