"""Greenwald–Khanna summary median (the concurrent result [4]).

Each node summarises its local items with an ε-approximate GK summary; the
summaries are merged pairwise up the spanning tree; the root answers the 0.5
quantile from the final summary.  The summary size is ``O((1/ε) log εN)``
tuples of ``O(log X̄)`` bits each, so the per-node cost is polylogarithmic but
with a higher exponent than the paper's binary-search protocol — Greenwald and
Khanna report ``O((log N)⁴)`` for exact order statistics and ``O((log N)³)``
for a one-pass approximation, which is the comparison the paper draws in
"Concurrent results by others".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import CountProtocol, MaxProtocol
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.sketches.gk_summary import GKSummary


@dataclass(frozen=True)
class GKMedianOutcome:
    """Approximate median plus the size of the root's summary."""

    median: int
    epsilon: float
    summary_size: int


class GKMedianProtocol:
    """Approximate median by merging Greenwald–Khanna summaries up the tree."""

    def __init__(
        self,
        epsilon: float = 0.05,
        domain_max: int | None = None,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must lie in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._domain_max = domain_max

    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute the protocol; ``value`` is a :class:`GKMedianOutcome`."""
        with MeteredRun(network) as metered:
            domain_max = self._domain_max
            if domain_max is None:
                domain_max = MaxProtocol().run(network).value
            total_items = CountProtocol().run(network).value
            broadcast(
                network,
                {"query": "GK_MEDIAN", "epsilon": self.epsilon},
                16,
                protocol="GK_MEDIAN",
            )
            merged = convergecast(
                network,
                network.item_columns.rows(
                    lambda values: GKSummary.from_values(values, epsilon=self.epsilon)
                ),
                lambda a, b: a.merge(b),
                lambda summary: summary.serialized_bits(
                    max_value=max(1, domain_max), max_count=max(1, total_items)
                ),
                protocol="GK_MEDIAN",
            )
            outcome = GKMedianOutcome(
                median=merged.median(),
                epsilon=self.epsilon,
                summary_size=merged.size,
            )
        return metered.result(outcome)
