"""Experiment harness, metrics and theoretical envelopes.

* :mod:`repro.analysis.metrics` — rank/value error of median
  estimates, and growth-rate fitting (does the measured per-node cost grow
  like ``(log N)^2``, ``(log log N)^3``, or ``N``?).
* :mod:`repro.analysis.theory` — the paper's asymptotic cost formulas as
  concrete envelope functions, used to overlay predictions on measurements
  and to extrapolate the exact-vs-approximate crossover beyond what a pure
  Python simulation can execute.
* :mod:`repro.analysis.experiments` — the study functions E1–E14, each
  returning one ``StudyResult`` whose ``measures`` the sweep cells, claim
  tests and examples all read.
* :mod:`repro.analysis.report` — plain-text table formatting for the
  example scripts and CLI reports.
"""

from repro.analysis.metrics import (
    MedianAccuracy,
    fit_growth_exponent,
    fit_against_model,
    median_accuracy,
)
from repro.analysis.report import format_table
from repro.analysis.theory import (
    apx_median_bits_envelope,
    exact_median_bits_envelope,
    naive_median_bits_envelope,
    polyloglog_median_bits_envelope,
    predicted_crossover,
)

__all__ = [
    "MedianAccuracy",
    "fit_growth_exponent",
    "fit_against_model",
    "median_accuracy",
    "format_table",
    "apx_median_bits_envelope",
    "exact_median_bits_envelope",
    "naive_median_bits_envelope",
    "polyloglog_median_bits_envelope",
    "predicted_crossover",
]
