"""Push-sum gossip aggregation (Kempe, Dobra, Gehrke).

The paper cites gossip-based aggregation [6] as the best previously known
randomized approach to order statistics: ``O((log N)³)`` bits per node under
ideal mixing.  This module provides the push-sum substrate; the gossip median
baseline (:mod:`repro.baselines.gossip_median`) runs a binary search whose
rank probes are answered by push-sum instead of a tree convergecast.

Push-sum maintains a (sum, weight) pair per node.  In every round each node
splits its pair in half, keeps one half and sends the other to a uniformly
random neighbour.  The ratio sum/weight at every node converges to the global
average of the initial sums; seeding weights as 1 everywhere yields the
average, seeding weight 1 only at the root yields the global sum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro._util.randomness import make_rng
from repro._util.validation import require_positive
from repro.network.simulator import SensorNetwork
from repro.protocols.base import MeteredRun, ProtocolResult

# Wire size of one push-sum message: two fixed-point numbers.
_PAIR_BITS = 2 * 32


@dataclass(frozen=True)
class PushSumOutcome:
    """Result of a push-sum run: the root's estimate and convergence data."""

    estimate: float
    rounds: int
    max_relative_spread: float


class PushSumGossip:
    """Average (or sum) computation by push-sum gossip."""

    def __init__(
        self,
        rounds: int | None = None,
        seed: int | random.Random | None = 0,
        target: str = "average",
    ) -> None:
        if target not in ("average", "sum"):
            raise ValueError(f"target must be 'average' or 'sum', got {target!r}")
        if rounds is not None:
            require_positive(rounds, "rounds")
        self.rounds = rounds
        self.target = target
        self._rng = make_rng(seed)

    def _default_rounds(self, network: SensorNetwork) -> int:
        # O(log² n) rounds suffice on well-mixing graphs; use a generous
        # multiple so line/grid topologies also converge in tests.
        n = max(2, network.num_nodes)
        return max(10, int(4 * math.log2(n) ** 2))

    def run(
        self,
        network: SensorNetwork,
        local_values: Sequence[float],
    ) -> ProtocolResult:
        """Run push-sum from ``local_values`` (one per link-table row, i.e.
        per node in id order); ``value`` of the result is a
        :class:`PushSumOutcome`."""
        rounds = self.rounds if self.rounds is not None else self._default_rounds(network)
        with MeteredRun(network) as metered:
            sums: dict[int, float] = {}
            weights: dict[int, float] = {}
            for node_id, local in zip(network.node_ids(), local_values):
                sums[node_id] = float(local)
                if self.target == "average":
                    weights[node_id] = 1.0
                else:
                    weights[node_id] = 1.0 if node_id == network.root_id else 0.0
            neighbours = {
                node_id: network.links.neighbors(node_id)
                for node_id in network.node_ids()
            }
            for _ in range(rounds):
                incoming_sum = {node_id: 0.0 for node_id in sums}
                incoming_weight = {node_id: 0.0 for node_id in sums}
                for node_id in network.node_ids():
                    if not neighbours[node_id]:
                        incoming_sum[node_id] += sums[node_id]
                        incoming_weight[node_id] += weights[node_id]
                        continue
                    half_sum = sums[node_id] / 2.0
                    half_weight = weights[node_id] / 2.0
                    peer = self._rng.choice(neighbours[node_id])
                    network.send(
                        node_id, peer, (half_sum, half_weight), _PAIR_BITS,
                        protocol="PUSH_SUM",
                    )
                    incoming_sum[node_id] += half_sum
                    incoming_weight[node_id] += half_weight
                    incoming_sum[peer] += half_sum
                    incoming_weight[peer] += half_weight
                sums = incoming_sum
                weights = incoming_weight
                network.ledger.advance_round()
            estimates = {
                node_id: (sums[node_id] / weights[node_id]) if weights[node_id] > 0 else 0.0
                for node_id in sums
            }
            root_estimate = estimates[network.root_id]
            spread = 0.0
            positive = [value for value in estimates.values() if value != 0.0]
            if positive and root_estimate != 0.0:
                spread = (max(positive) - min(positive)) / abs(root_estimate)
            outcome = PushSumOutcome(
                estimate=root_estimate,
                rounds=rounds,
                max_relative_spread=spread,
            )
        return metered.result(outcome)
