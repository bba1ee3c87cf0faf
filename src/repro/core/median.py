"""Deterministic exact median — Algorithm MEDIAN(X) of Fig. 1 (Theorem 3.2).

The median is the N/2-order statistic (Definition 2.3), so the protocol is the
binary-search selection of :mod:`repro.core.order_statistics` with the target
rank fixed to ``n / 2``, exactly as the pseudocode's Lines 3.2 and 4.1 use the
``n/2`` expression.

Guarantees reproduced (and asserted by the test-suite and experiment E3):

* the output is always an exact median of the input multiset;
* the per-node communication is ``O((log N)^2)`` bits — ``O(log N)`` probes,
  each costing ``O(log N)`` bits per node on a bounded-degree spanning tree;
* space and processing per node stay ``O(log N)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.order_statistics import (
    OrderStatisticOutcome,
    run_binary_search_selection,
)
from repro.network.simulator import SensorNetwork
from repro.protocols.base import ProtocolResult


@dataclass(frozen=True)
class MedianOutcome:
    """Root-side outcome of the deterministic median protocol."""

    median: int
    n: int
    minimum: int
    maximum: int
    probes: int
    binary_search_iterations: int

    @classmethod
    def from_order_statistic(cls, outcome: OrderStatisticOutcome) -> "MedianOutcome":
        return cls(
            median=outcome.value,
            n=outcome.n,
            minimum=outcome.minimum,
            maximum=outcome.maximum,
            probes=outcome.probes,
            binary_search_iterations=outcome.binary_search_iterations,
        )


class DeterministicMedianProtocol:
    """Algorithm MEDIAN(X): exact median with O((log N)^2) bits per node."""

    def __init__(self, domain_max: int | None = None) -> None:
        self._domain_max = domain_max

    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute the protocol; the result's ``value`` is a :class:`MedianOutcome`."""
        result = run_binary_search_selection(
            network,
            target_rank=lambda n: n / 2.0,
            domain_max=self._domain_max,
        )
        outcome = MedianOutcome.from_order_statistic(result.value)
        return ProtocolResult(
            value=outcome,
            max_node_bits=result.max_node_bits,
            total_bits=result.total_bits,
            messages=result.messages,
            rounds=result.rounds,
        )
