"""Common protocol plumbing.

A protocol in this package is an object with a ``run(network)`` method that
returns a :class:`ProtocolResult`.  The result couples the answer written to
the root's output register with the communication cost the invocation added to
the ledger, so callers (the core algorithms and the experiment harness) never
have to diff ledger snapshots by hand.

Local steps read every node's items at once from
:attr:`~repro.network.SensorNetwork.item_columns`; the five protocols
APX_MEDIAN2 composes take its own columns instead, as ``items=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.network.simulator import SensorNetwork


@dataclass(frozen=True)
class ProtocolResult:
    """Answer of one protocol invocation plus its communication cost."""

    value: Any
    max_node_bits: int
    total_bits: int
    messages: int
    rounds: int

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ProtocolResult(value={self.value!r}, max_node_bits={self.max_node_bits}, "
            f"total_bits={self.total_bits}, messages={self.messages}, rounds={self.rounds})"
        )


class MeteredRun:
    """Context manager measuring the ledger delta of one protocol invocation.

    Built on the ledger's :meth:`~repro.network.CommunicationLedger.mark`:
    entering snapshots the per-node totals column and :meth:`result`
    subtracts it — one O(n) array pass each, on every execution path.
    Metered runs nest: an outer protocol that invokes sub-protocols (each
    with its own :class:`MeteredRun`) still measures its full interval, and
    a :meth:`~SensorNetwork.reset_ledger` inside one rebases it to the
    reset.
    """

    def __init__(self, network: SensorNetwork) -> None:
        self.network = network
        self._mark = None

    def __enter__(self) -> "MeteredRun":
        self._mark = self.network.ledger.mark()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # The mark's snapshot stays valid after release, so result() may be
        # called either inside or right after the with-block.
        self.network.ledger.release(self._mark)

    def result(self, value: Any) -> ProtocolResult:
        ledger = self.network.ledger
        mark = self._mark
        return ProtocolResult(
            value=value,
            max_node_bits=ledger.max_node_delta_since(mark),
            total_bits=ledger.total_bits - mark.total_bits,
            messages=ledger.total_messages - mark.messages,
            rounds=ledger.rounds - mark.rounds,
        )
