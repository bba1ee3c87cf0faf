"""Uniform-sampling median (the Nath et al. synopsis-diffusion approach).

Each node offers its items to a mergeable bottom-k sample; partial samples are
combined up the tree; the root reports the sample median.  With a sample of
``k`` items the rank error is ``O(N / sqrt(k))`` with constant probability,
and the per-node cost is ``Θ(k log N)`` bits — the ``Ω(log N)`` per-node cost
the paper notes when comparing against its polyloglog algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.validation import require_positive
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import MaxProtocol
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.sketches.sampling import MergeableSample


@dataclass(frozen=True)
class SamplingMedianOutcome:
    """Sample median plus the sample size actually collected."""

    median: int
    sample_size: int
    items_observed: int


class SamplingMedianProtocol:
    """Approximate median from a mergeable uniform sample of size ``sample_size``."""

    def __init__(
        self,
        sample_size: int = 32,
        domain_max: int | None = None,
        salt: int = 0,
    ) -> None:
        require_positive(sample_size, "sample_size")
        self.sample_size = sample_size
        self._domain_max = domain_max
        self._salt = salt

    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute the protocol; ``value`` is a :class:`SamplingMedianOutcome`."""
        with MeteredRun(network) as metered:
            domain_max = self._domain_max
            if domain_max is None:
                domain_max = MaxProtocol().run(network).value
            broadcast(
                network,
                {"query": "SAMPLING_MEDIAN", "k": self.sample_size, "salt": self._salt},
                16,
                protocol="SAMPLING_MEDIAN",
            )
            def local(node_id: int, values: list[int]) -> MergeableSample:
                sample = MergeableSample(capacity=self.sample_size, salt=self._salt)
                for value in values:
                    sample.add(value, origin=node_id)
                return sample

            merged = convergecast(
                network,
                list(map(local, network.node_ids(), network.item_columns.rows())),
                lambda a, b: a.merge(b),
                lambda sample: sample.serialized_bits(
                    max_value=max(1, domain_max), max_nodes=network.num_nodes
                ),
                protocol="SAMPLING_MEDIAN",
            )
            outcome = SamplingMedianOutcome(
                median=merged.sample_median(),
                sample_size=merged.size,
                items_observed=merged.observed,
            )
        return metered.result(outcome)
