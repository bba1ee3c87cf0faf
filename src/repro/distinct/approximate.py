"""Approximate COUNT DISTINCT with O(log log n) bits per node.

Section 5 contrasts the Ω(n) lower bound for exact distinct counting with the
extremely cheap approximate version: hashing each item and feeding the hash to
a LogLog sketch counts distinct values (duplicates hash identically and
collapse), with the usual ``1.3/sqrt(m)`` relative error and
``m · O(log log n)`` bits per node.  The paper quotes the concrete guarantee of
Durand–Flajolet: with ``k²`` registers the estimate is within a factor
``(1 ± 3.15/k)`` of the truth with probability at least 99%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.network.simulator import SensorNetwork
from repro.protocols.apx_count import ApproxCountProtocol
from repro.protocols.base import ProtocolResult


@dataclass(frozen=True)
class ApproxDistinctOutcome:
    """Estimate plus the accuracy promise of Fact 2.2 / Section 5."""

    estimate: float
    relative_sigma: float
    guaranteed_factor: float  # the 3.15/k of the paper, for m = k² registers


class ApproxDistinctCountProtocol:
    """Distributed LogLog/HyperLogLog distinct counting."""

    def __init__(
        self,
        num_registers: int = 64,
        sketch: str = "loglog",
        seed: int | None = 0,
    ) -> None:
        if num_registers < 4:
            raise ConfigurationError("at least 4 registers are required")
        self.num_registers = num_registers
        self._protocol = ApproxCountProtocol(
            num_registers=num_registers,
            mode="distinct",
            sketch=sketch,
            seed=seed,
        )

    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute the protocol; ``value`` is an :class:`ApproxDistinctOutcome`."""
        result = self._protocol.run(network)
        k = math.sqrt(self.num_registers)
        outcome = ApproxDistinctOutcome(
            estimate=result.value.estimate,
            relative_sigma=result.value.relative_sigma,
            guaranteed_factor=3.15 / k,
        )
        return ProtocolResult(
            value=outcome,
            max_node_bits=result.max_node_bits,
            total_bits=result.total_bits,
            messages=result.messages,
            rounds=result.rounds,
        )
