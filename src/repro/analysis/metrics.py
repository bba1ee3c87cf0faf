"""Accuracy measures and growth-rate analysis.

The paper's claims are asymptotic ("O((log N)^2) bits per node"), so the
reproduction's job is to show that the *measured* per-node communication grows
like the claimed function of N.  :func:`fit_against_model` fits the measured
cost to ``c · f(N)`` by least squares and reports the residual spread of the
ratio ``measured / f(N)``; a flat ratio (small spread) means the model
explains the growth.  :func:`fit_growth_exponent` fits a power law
``c · N^p`` in log-log space, which is how the linear behaviour of exact
COUNT DISTINCT (p ≈ 1) is distinguished from the polylog protocols (p ≈ 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.definitions import is_order_statistic, rank
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class MedianAccuracy:
    """Rank and value error of a median estimate (the α and β of Definition 2.4)."""

    rank_error: float
    value_error: float
    exact: bool


def median_accuracy(
    items: Sequence[int], estimate: float, quantile: float = 0.5
) -> MedianAccuracy:
    """Measure how far ``estimate`` is from the exact median of ``items``.

    ``rank_error`` is ``|ℓ(estimate) − k| / k`` — the empirical α — and
    ``value_error`` is ``|estimate − nearest exact answer| / max(items)`` —
    the empirical β — for the target rank ``k = quantile · N`` (the median's
    ``N/2`` by default; any other ``quantile`` measures that order statistic).
    """
    if not items:
        raise ConfigurationError("cannot measure accuracy against an empty multiset")
    target = quantile * len(items)
    estimate_rank = rank(items, estimate) + 0.5 * sum(
        1 for item in items if item == estimate
    )
    rank_error = abs(estimate_rank - target) / target if target else 0.0
    ordered = sorted(items)
    exact_answer = ordered[max(0, math.ceil(target) - 1)]
    max_item = max(items)
    value_error = abs(estimate - exact_answer) / max_item if max_item else 0.0
    return MedianAccuracy(
        rank_error=rank_error,
        value_error=value_error,
        exact=is_order_statistic(items, target, estimate),
    )


def fit_growth_exponent(
    sizes: Sequence[float], costs: Sequence[float]
) -> tuple[float, float]:
    """Fit ``cost ≈ c · size^p`` by least squares in log-log space.

    Returns ``(p, c)``.  Used to distinguish linear growth (exact
    COUNT DISTINCT, naive median: p ≈ 1) from polylogarithmic growth
    (p ≈ 0 with slowly growing residuals).
    """
    if len(sizes) != len(costs) or len(sizes) < 2:
        raise ConfigurationError("need at least two (size, cost) pairs")
    if any(size <= 0 for size in sizes) or any(cost <= 0 for cost in costs):
        raise ConfigurationError("sizes and costs must be positive for a log-log fit")
    log_sizes = [math.log(size) for size in sizes]
    log_costs = [math.log(cost) for cost in costs]
    n = len(sizes)
    mean_x = sum(log_sizes) / n
    mean_y = sum(log_costs) / n
    sxx = sum((x - mean_x) ** 2 for x in log_sizes)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(log_sizes, log_costs))
    exponent = sxy / sxx if sxx else 0.0
    constant = math.exp(mean_y - exponent * mean_x)
    return exponent, constant


def fit_against_model(
    sizes: Sequence[float],
    costs: Sequence[float],
    model: Callable[[float], float],
) -> tuple[float, float]:
    """Fit ``cost ≈ c · model(size)`` and report ``(c, ratio_spread)``.

    ``ratio_spread`` is ``max(ratio) / min(ratio)`` where
    ``ratio = cost / model(size)``: a value close to 1 means the model tracks
    the measurements across the whole sweep; a large value means the model has
    the wrong growth rate.
    """
    if len(sizes) != len(costs) or not sizes:
        raise ConfigurationError("need matching, non-empty size and cost sequences")
    ratios = []
    for size, cost in zip(sizes, costs):
        predicted = model(size)
        if predicted <= 0:
            raise ConfigurationError(f"model returned a non-positive value at {size}")
        ratios.append(cost / predicted)
    constant = sum(ratios) / len(ratios)
    positive = [ratio for ratio in ratios if ratio > 0]
    spread = (max(positive) / min(positive)) if positive else float("inf")
    return constant, spread
