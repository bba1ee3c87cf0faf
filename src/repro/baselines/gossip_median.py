"""Gossip median: binary search with push-sum rank probes (Kempe et al. flavour).

The paper cites gossip-based aggregation [6] as the best previously known
randomized approach: ``O((log N)³)`` bits per node on well-mixing graphs.  The
baseline implemented here follows that structure: the value range is binary
searched exactly as in Fig. 1, but each rank probe ``ℓ(y)/N`` is estimated by
push-sum gossip over the raw communication graph (no spanning tree), averaging
the indicator "my item is below y" across nodes.

Each probe runs ``O(log² N)`` gossip rounds of constant-size messages, and
there are ``O(log X̄)`` probes, which on well-mixing topologies lands in the
polylog regime the paper quotes.  On poorly mixing topologies (the line) the
probe estimates are visibly worse — one of the robustness findings surfaced by
experiment E8.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro._util.randomness import make_rng
from repro.exceptions import EmptyNetworkError
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import MaxProtocol, MinProtocol
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.gossip import PushSumGossip
from repro.protocols.predicates import LessThanPredicate


@dataclass(frozen=True)
class GossipMedianOutcome:
    """Approximate median plus probe diagnostics."""

    median: int
    probes: int
    rounds_per_probe: int


class GossipMedianProtocol:
    """Approximate median with gossip-estimated rank probes."""

    def __init__(
        self,
        rounds_per_probe: int | None = None,
        domain_max: int | None = None,
        seed: int | random.Random | None = 0,
    ) -> None:
        self.rounds_per_probe = rounds_per_probe
        self._domain_max = domain_max
        self._rng = make_rng(seed)

    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute the protocol; ``value`` is a :class:`GossipMedianOutcome`."""
        with MeteredRun(network) as metered:
            if network.total_items() == 0:
                raise EmptyNetworkError("the network holds no items")
            minimum = MinProtocol(domain_max=self._domain_max).run(network).value
            maximum = MaxProtocol(domain_max=self._domain_max).run(network).value
            rounds = self.rounds_per_probe
            if rounds is None:
                n = max(2, network.num_nodes)
                rounds = max(8, int(2 * math.log2(n) ** 2))

            probes = 0

            def gossip_fraction_below(threshold: float) -> float:
                nonlocal probes
                probes += 1
                gossip = PushSumGossip(
                    rounds=rounds, seed=self._rng, target="average"
                )
                # Each node's fraction of its items below the threshold.
                items = network.item_columns
                below = items.counts(LessThanPredicate(threshold).mask(items.values))
                fractions = below / items.lengths.clip(min=1)
                return gossip.run(network, fractions.tolist()).value.estimate

            spread = maximum - minimum
            if spread == 0:
                outcome = GossipMedianOutcome(
                    median=minimum, probes=probes, rounds_per_probe=rounds
                )
                return metered.result(outcome)

            y = (maximum + minimum) / 2.0
            z = float(1 << max(0, (spread - 1).bit_length() - 1)) if spread > 1 else 0.5
            while z > 0.5:
                if gossip_fraction_below(y) < 0.5:
                    y += z / 2.0
                else:
                    y -= z / 2.0
                z /= 2.0
            outcome = GossipMedianOutcome(
                median=int(math.floor(y)), probes=probes, rounds_per_probe=rounds
            )
        return metered.result(outcome)
