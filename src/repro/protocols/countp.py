"""COUNTP — counting under a locally-computable predicate (Section 3.1).

``COUNTP(X, P)`` returns the number of items satisfying ``P``.  The paper
observes that any COUNT implementation yields a COUNTP implementation: run the
counting protocol over only the elements that satisfy ``P``.  For the
asymptotic cost to stay comparable to COUNT, the predicate description must
fit in ``O(C_COUNT(N))`` bits; the broadcast phase below charges exactly the
predicate's own :meth:`~repro.protocols.predicates.Predicate.encoded_bits`.
"""

from __future__ import annotations

from repro.network.simulator import SensorNetwork
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import count_convergecast
from repro.protocols.predicates import Predicate


class CountPredicateProtocol:
    """Exact predicate counting over the spanning tree."""

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate

    def run(self, network: SensorNetwork) -> ProtocolResult:
        with MeteredRun(network) as metered:
            broadcast(
                network,
                {"query": "COUNTP", "predicate": self.predicate},
                self.predicate.encoded_bits(),
                protocol="COUNTP",
            )
            items = network.item_columns
            answer = count_convergecast(
                network, items.counts(self.predicate.mask(items.values)), "COUNTP"
            )
        return metered.result(answer)
