"""Deterministic k-order-statistic computation (Fig. 1 + Section 3.4).

The algorithm binary-searches the value range: it first learns ``min``,
``max`` and ``N`` with the primitive protocols of Fact 2.1, then repeatedly
asks ``COUNTP(X, "< y")`` at the midpoint of the surviving interval.  After
``ceil(log(max - min)) + 1`` iterations the interval has shrunk to width one
and the order statistic is pinned down, possibly needing one final probe to
disambiguate the two neighbouring integers (Line 4.1 of Fig. 1).

Per-probe cost is ``O(log N)`` bits per node (predicate description plus one
partial count on each tree edge), and there are ``O(log N)`` probes, giving
the ``O((log N)^2)`` bound of Theorem 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import CountProtocol, MaxProtocol, MinProtocol
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.countp import CountPredicateProtocol
from repro.protocols.predicates import LessThanPredicate


@dataclass(frozen=True)
class OrderStatisticOutcome:
    """Root-side outcome of a deterministic order-statistic query."""

    value: int
    k: float
    n: int
    minimum: int
    maximum: int
    probes: int
    binary_search_iterations: int


def run_binary_search_selection(
    network: SensorNetwork,
    target_rank: Callable[[int], float],
    domain_max: int | None = None,
) -> ProtocolResult:
    """Shared implementation of Fig. 1, parameterised by the target rank.

    ``target_rank(n)`` maps the exact item count to the rank ``k`` that is
    searched for — ``n / 2`` for the median, a constant for a generic k-order
    statistic.  Returns a :class:`ProtocolResult` whose value is an
    :class:`OrderStatisticOutcome`.
    """
    with MeteredRun(network) as metered:
        # Line 1: primitive protocols for min, max and count.
        minimum = MinProtocol(domain_max=domain_max).run(network).value
        maximum = MaxProtocol(domain_max=domain_max).run(network).value
        n = CountProtocol().run(network).value
        if n == 0:
            raise EmptyNetworkError("cannot select from an empty input multiset")
        k = target_rank(n)
        if k <= 0 or k > n:
            raise ConfigurationError(f"target rank {k} outside (0, {n}]")

        probes = 0
        iterations = 0

        def count_below(threshold: float) -> int:
            nonlocal probes
            probes += 1
            predicate = LessThanPredicate(
                threshold=threshold,
                domain_max=domain_max if domain_max is not None else maximum,
            )
            return CountPredicateProtocol(predicate).run(network).value

        if maximum == minimum:
            # Degenerate range: every item has the same value, which is the
            # k-order statistic for every valid k.
            outcome = OrderStatisticOutcome(
                value=minimum,
                k=k,
                n=n,
                minimum=minimum,
                maximum=maximum,
                probes=probes,
                binary_search_iterations=0,
            )
            return metered.result(outcome)

        # Line 2: start in the middle of the value range, with a radius that
        # covers the whole range.
        spread = maximum - minimum
        y = (maximum + minimum) / 2.0
        z = float(1 << max(0, (spread - 1).bit_length() - 1)) if spread > 1 else 0.5

        # Line 3: binary search on the value range.
        while z > 0.5:
            iterations += 1
            if count_below(y) < k:
                y += z / 2.0
            else:
                y -= z / 2.0
            z /= 2.0

        # Line 4: resolve the final half-integer ambiguity.
        if float(y).is_integer():
            value = int(y)
        else:
            upper = int(y) + 1
            if count_below(float(upper)) < k:
                value = upper
            else:
                value = int(y)

        outcome = OrderStatisticOutcome(
            value=value,
            k=k,
            n=n,
            minimum=minimum,
            maximum=maximum,
            probes=probes,
            binary_search_iterations=iterations,
        )
    return metered.result(outcome)


class DeterministicOrderStatisticProtocol:
    """Exact k-order statistic by binary search over the value range.

    ``k`` may be given as an absolute rank (``k=25``) or as a fraction of the
    item count (``quantile=0.25``); exactly one must be supplied.
    """

    def __init__(
        self,
        k: float | None = None,
        quantile: float | None = None,
        domain_max: int | None = None,
    ) -> None:
        if (k is None) == (quantile is None):
            raise ConfigurationError("exactly one of k and quantile must be given")
        if quantile is not None and not 0.0 < quantile <= 1.0:
            raise ConfigurationError(f"quantile must lie in (0, 1], got {quantile}")
        if k is not None and k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        self.k = k
        self.quantile = quantile
        self._domain_max = domain_max

    def run(self, network: SensorNetwork) -> ProtocolResult:
        def target(n: int) -> float:
            if self.k is not None:
                return float(self.k)
            return self.quantile * n

        return run_binary_search_selection(network, target, domain_max=self._domain_max)
