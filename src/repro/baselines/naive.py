"""Naive exact median: ship every raw value to the root.

TAG classifies MEDIAN as a *holistic* aggregate: no lossless in-network
reduction is possible, so the straightforward protocol forwards every item up
the tree.  A node whose subtree contains ``s`` items transmits ``Θ(s log X̄)``
bits, so the nodes adjacent to the root carry ``Θ(N log N)`` bits — the linear
behaviour the paper's introduction contrasts its ``O((log N)²)`` protocol
against.  This is the primary baseline of experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.bits import fixed_width_bits, varint_bits
from repro.core.definitions import reference_median
from repro.exceptions import EmptyNetworkError
from repro.network.simulator import SensorNetwork
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast


@dataclass(frozen=True)
class NaiveMedianOutcome:
    """Exact median plus the number of raw values the root received."""

    median: int
    n: int


class NaiveShipAllMedianProtocol:
    """Forward all raw values to the root; sort there."""

    def __init__(self, domain_max: int | None = None) -> None:
        self._domain_max = domain_max

    def _list_bits(self, values: tuple[int, ...]) -> int:
        if not values:
            return 1
        if self._domain_max is not None:
            per_value = fixed_width_bits(self._domain_max)
            return len(values) * per_value + varint_bits(len(values))
        return sum(varint_bits(value) for value in values) + varint_bits(len(values))

    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute the protocol; ``value`` is a :class:`NaiveMedianOutcome`."""
        with MeteredRun(network) as metered:
            broadcast(network, {"query": "NAIVE_MEDIAN"}, 4, protocol="NAIVE_MEDIAN")
            all_values = convergecast(
                network,
                network.item_columns.rows(tuple),
                lambda a, b: a + b,
                self._list_bits,
                protocol="NAIVE_MEDIAN",
            )
            if not all_values:
                raise EmptyNetworkError("the network holds no items")
            outcome = NaiveMedianOutcome(
                median=reference_median(list(all_values)), n=len(all_values)
            )
        return metered.result(outcome)
