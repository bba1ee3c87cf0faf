"""Exact COUNT DISTINCT over the spanning tree.

To report the exact number of distinct values, a node cannot compress its
subtree's data below (roughly) one bit per possible value or ``log C(X̄, d)``
bits for ``d`` distinct values — duplicates can only be eliminated if the node
knows *which* values have already been counted.  The natural exact protocol
therefore convergecasts the *set* of distinct values seen in each subtree.

Theorem 5.1 shows this is not an artefact of the naive protocol: any exact
protocol (even randomized) transfers Ω(n) bits through some node in the worst
case.  The experiment harness (E7) runs this protocol on the adversarial
Set-Disjointness instances of :mod:`repro.distinct.disjointness` and measures
the linear growth directly, alongside the O(log log n) approximate protocol.
"""

from __future__ import annotations

from repro._util.bits import fixed_width_bits, varint_bits
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import require_in_domain
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast


class ExactDistinctCountProtocol:
    """Exact distinct counting by shipping value sets up the tree.

    ``domain_max`` (the paper's X̄), when provided, lets partial sets be encoded
    as whichever is smaller of an explicit value list and a bitmap over the
    domain; the accounting charges that minimum, which is the honest cost of
    the best simple exact encoding.
    """

    def __init__(self, domain_max: int | None = None) -> None:
        self._domain_max = domain_max

    def _set_bits(self, values: frozenset[int]) -> int:
        if not values:
            return 1
        count = len(values)
        if self._domain_max is None:
            return sum(varint_bits(value) for value in values) + varint_bits(count)
        listing = count * fixed_width_bits(self._domain_max) + varint_bits(count)
        return min(listing, self._domain_max + 1)  # or a bitmap over the domain

    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute the protocol; the result's ``value`` is the exact distinct count."""
        require_in_domain(
            network, network.item_columns, self._domain_max, "COUNT_DISTINCT"
        )
        with MeteredRun(network) as metered:
            broadcast(
                network, {"query": "COUNT_DISTINCT"}, 4, protocol="COUNT_DISTINCT"
            )
            merged = convergecast(
                network,
                network.item_columns.rows(frozenset),
                lambda a, b: a | b,
                self._set_bits,
                protocol="COUNT_DISTINCT",
            )
            answer = len(merged)
        return metered.result(answer)
