"""Energy model.

The paper's motivation (Section 1) is that communication dominates a sensor's
power budget — "sending or receiving a small message may consume as much power
as a thousand processing cycles".  The :class:`EnergyModel` turns the bit
counters of a :class:`~repro.network.CommunicationLedger` into per-node energy
figures so experiments can be reported in the units practitioners care about.

Default coefficients follow the common first-order radio model used in the
sensor-network literature (e.g. Heinzelman et al.): a fixed per-bit
electronics cost for both transmit and receive, plus an amplifier term for
transmission.  Absolute values are nominal; only ratios matter for the
comparisons reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.accounting import CommunicationLedger


@dataclass(frozen=True)
class EnergyModel:
    """Per-bit energy coefficients, in nanojoules per bit."""

    transmit_nj_per_bit: float = 50.0
    receive_nj_per_bit: float = 50.0
    amplifier_nj_per_bit: float = 10.0
    idle_nj_per_round: float = 1.0

    def transmit_cost(self, bits: int) -> float:
        """Energy (nJ) to transmit ``bits`` bits."""
        return bits * (self.transmit_nj_per_bit + self.amplifier_nj_per_bit)

    def receive_cost(self, bits: int) -> float:
        """Energy (nJ) to receive ``bits`` bits."""
        return bits * self.receive_nj_per_bit

    def report(self, ledger: CommunicationLedger) -> "EnergyReport":
        """Summarise a ledger as per-node and aggregate energy figures."""
        per_node: dict[int, float] = {}
        for node in ledger.nodes():
            traffic = ledger.traffic(node)
            per_node[node] = (
                self.transmit_cost(traffic.bits_sent)
                + self.receive_cost(traffic.bits_received)
                + self.idle_nj_per_round * ledger.rounds
            )
        total = sum(per_node.values())
        peak = max(per_node.values()) if per_node else 0.0
        return EnergyReport(per_node_nj=per_node, total_nj=total, peak_node_nj=peak)


@dataclass(frozen=True)
class EnergyReport:
    """Energy consumed by each node and in aggregate, in nanojoules."""

    per_node_nj: dict[int, float] = field(default_factory=dict)
    total_nj: float = 0.0
    peak_node_nj: float = 0.0
