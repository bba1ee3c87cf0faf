"""q-digest median (Shrivastava et al., SenSys 2004).

Each node builds a q-digest of its local items over the known value domain;
digests are merged up the tree; the root answers the 0.5 quantile.  The digest
holds ``O(compression · log X̄)`` (range, count) pairs, giving a per-node cost
of ``O(compression · (log X̄)²)`` bits — another polylog baseline from the
paper's era, with rank error ``O(log X̄ / compression)`` of N.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.validation import require_positive
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import MaxProtocol
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.sketches.qdigest import QDigest


@dataclass(frozen=True)
class QDigestMedianOutcome:
    """Approximate median plus the size of the root's digest."""

    median: int
    compression: int
    digest_size: int


class QDigestMedianProtocol:
    """Approximate median by merging q-digests up the tree."""

    def __init__(
        self,
        compression: int = 32,
        domain_max: int | None = None,
    ) -> None:
        require_positive(compression, "compression")
        self.compression = compression
        self._domain_max = domain_max

    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute the protocol; ``value`` is a :class:`QDigestMedianOutcome`."""
        with MeteredRun(network) as metered:
            domain_max = self._domain_max
            if domain_max is None:
                domain_max = MaxProtocol().run(network).value
            universe = max(2, domain_max + 1)
            broadcast(
                network,
                {"query": "QDIGEST_MEDIAN", "compression": self.compression},
                16,
                protocol="QDIGEST_MEDIAN",
            )
            merged = convergecast(
                network,
                network.item_columns.rows(
                    lambda values: QDigest.from_values(
                        values, universe_size=universe, compression=self.compression
                    )
                ),
                lambda a, b: a.merge(b),
                lambda digest: digest.serialized_bits(),
                protocol="QDIGEST_MEDIAN",
            )
            outcome = QDigestMedianOutcome(
                median=merged.median(),
                compression=self.compression,
                digest_size=merged.size,
            )
        return metered.result(outcome)
