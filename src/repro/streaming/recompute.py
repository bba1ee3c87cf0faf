"""Naive per-epoch recomputation baseline.

:class:`RecomputeEngine` answers the same standing queries as
:class:`~repro.streaming.ContinuousQueryEngine` but the way the one-shot
protocols would: every epoch, every node ships its *full* subtree summary up
the spanning tree, regardless of what changed.  It reuses the one-shot
:func:`~repro.protocols.convergecast.convergecast` traversal, so its per-epoch
cost is exactly what re-running the corresponding one-shot protocol each
epoch would charge — the honest baseline for the incremental engine's
steady-state savings.

Both engines expose the same ``register`` / ``advance_epoch`` / ``trace``
surface, so :func:`~repro.streaming.engine.run_stream` drives either through
identical stream inputs.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.network.energy import EnergyModel
from repro.network.simulator import SensorNetwork
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.streaming.queries import REGISTRATION_BITS, StandingQuery
from repro.streaming.trace import EpochRecord, StreamingTrace, build_epoch_record


class RecomputeEngine:
    """Re-run a full convergecast for every registered query, every epoch."""

    protocol_prefix = "recompute"

    def __init__(
        self,
        network: SensorNetwork,
        energy_model: EnergyModel | None = None,
    ) -> None:
        self.network = network
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.trace = StreamingTrace()
        self._queries: dict[str, StandingQuery] = {}
        self._answers: dict[str, Any] = {}

    def register(self, name: str, query: StandingQuery, announce: bool = True) -> None:
        """Register a standing query under ``name`` (mirrors the incremental engine)."""
        if name in self._queries:
            raise ConfigurationError(f"query {name!r} is already registered")
        self._queries[name] = query
        if announce:
            broadcast(
                self.network,
                {"register": name, "kind": query.kind},
                REGISTRATION_BITS,
                protocol=f"{self.protocol_prefix}:{name}:register",
            )

    def answers(self) -> dict[str, Any]:
        return dict(self._answers)

    def advance_epoch(
        self, updates: Mapping[int, Sequence[int]] | None = None
    ) -> EpochRecord:
        """Apply updates, then recompute every query from scratch."""
        if not self._queries:
            raise ConfigurationError(
                "no standing queries registered; call register() first"
            )
        updates = dict(updates or {})
        before = self.network.ledger.counters_snapshot()
        self.network.assign_items(updates)
        transmissions = 0
        for name, query in self._queries.items():
            root_summary = convergecast(
                self.network,
                self.network.item_columns.rows(query.local_summary),
                lambda a, b: a.merge(b),
                lambda summary: summary.serialized_bits(),
                protocol=f"{self.protocol_prefix}:{name}",
            )
            self._answers[name] = query.answer(root_summary)
            transmissions += self.network.num_nodes - 1
        after = self.network.ledger.counters_snapshot()
        record = build_epoch_record(
            epoch=len(self.trace),
            answers=self._answers,
            before=before,
            after=after,
            num_nodes=self.network.num_nodes,
            energy_model=self.energy_model,
            dirty_nodes=len(updates),
            transmissions=transmissions,
            suppressions=0,
            query_names=list(self._queries),
            protocol_prefix=self.protocol_prefix,
        )
        self.trace.append(record)
        return record
