"""A standalone million-node sensor field on contiguous numpy state.

:class:`~repro.network.SensorNetwork` carries a link table, item columns
and a radio model — the full simulation fidelity the correctness suites
need.  :class:`VectorField` is a standalone counterpart for the paper's
*continuous monitoring* regime, with no link table: a field whose
structure is a :class:`~repro.network.FlatTree` (parent / child-span /
level arrays as contiguous ``int64`` buffers), whose per-node state is a
handful of ``int64``/bool columns, and whose per-epoch work is the fused
sweep chain

1. **detect** — one heartbeat charge over every alive tree edge
   (:func:`repro.faults.detection.heartbeat_sweep_vectorized`),
2. **repair** — the attach sweep recomputing root connectivity from the
   alive mask (:func:`repro.faults.repair.attached_mask_vectorized`),
3. **stream** — the change-driven convergecast with ε-suppression and
   delta-sized frames (:func:`repro.streaming.vector_kernels.sweep_levels`),

each phase running as whole-array level passes and charging the
:class:`~repro.network.CommunicationLedger` in one batch per level.  The bit
accounting is the same arithmetic the reference engine performs per node:
a count summary costs ``varint_bits(v) + 1`` on first transmission and
``1 + min(delta, full)`` afterwards, heartbeats cost
:data:`~repro.faults.detection.HEARTBEAT_BITS` per edge, and one ledger
round advances per swept level — so the ledger, read through the usual
telemetry spans, is directly comparable with the simulator-backed runs.

Perfect links only: there is no radio model at this scale (the lossy /
duplicating radios count every link's sends, which is exactly the per-link
cost this class exists to avoid).  For radio-faithful array execution
over a real :class:`~repro.network.SensorNetwork`, use
:class:`repro.streaming.ContinuousQueryEngine`, whose column sweep runs the
same kernel.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro._util.validation import require_positive
from repro.exceptions import ConfigurationError
from repro.network.accounting import CommunicationLedger
from repro.network.flat_tree import FlatTree
from repro.telemetry import NULL_RECORDER


class _FieldQuery:
    """Per-query state: sweep columns plus the ε-slack bookkeeping."""

    __slots__ = ("state", "initialized", "scale", "forced")

    def __init__(self, num_nodes: int) -> None:
        from repro.streaming.vector_kernels import SweepState

        self.state = SweepState.zeros(num_nodes)
        self.initialized = False
        self.scale = 0.0
        #: Positions forced active next sweep (attach-frontier corrections).
        self.forced = np.zeros(num_nodes, dtype=bool)


class VectorField:
    """A tree-structured sensor field held entirely in numpy columns."""

    protocol_prefix = "stream"

    def __init__(
        self,
        flat: FlatTree,
        *,
        epsilon: float = 0.1,
        telemetry=None,
    ) -> None:
        if epsilon < 0:
            raise ConfigurationError(f"epsilon must be non-negative, got {epsilon}")
        self.flat = flat
        self.num_nodes = flat.num_nodes
        self.epsilon = epsilon
        self.ledger = CommunicationLedger(self.num_nodes)
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.telemetry.bind_ledger(self.ledger)
        self.alive = np.ones(self.num_nodes, dtype=bool)
        self.attached = np.ones(self.num_nodes, dtype=bool)
        #: Per-node local reading count (the COUNT summary's local value).
        self.counts = np.zeros(self.num_nodes, dtype=np.int64)
        self._queries: dict[str, _FieldQuery] = {}
        self.answers: dict[str, int] = {}
        self.epoch = 0
        self.records: list[dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def balanced(
        cls, num_nodes: int, branching: int = 8, **kwargs
    ) -> "VectorField":
        """A complete ``branching``-ary tree over ids ``0..num_nodes-1``.

        Built through :meth:`FlatTree.from_arrays` — no networkx graph, no
        per-node objects — so a million-node field assembles in tens of
        milliseconds.
        """
        require_positive(num_nodes, "num_nodes")
        require_positive(branching, "branching")
        parents = np.empty(num_nodes, dtype=np.int64)
        parents[0] = -1
        if num_nodes > 1:
            parents[1:] = (np.arange(1, num_nodes, dtype=np.int64) - 1) // branching
        return cls(FlatTree.from_arrays(parents), **kwargs)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def register_count_query(self, name: str, announce: bool = True) -> None:
        """Register a standing COUNT query; optionally charge the broadcast.

        The announcement mirrors the reference engine's registration: one
        :data:`~repro.streaming.queries.REGISTRATION_BITS` frame per tree
        edge, root-to-leaves, plus one ledger round per level.
        """
        from repro.streaming.queries import REGISTRATION_BITS

        if name in self._queries:
            raise ConfigurationError(f"query {name!r} is already registered")
        self._queries[name] = _FieldQuery(self.num_nodes)
        if announce and self.num_nodes > 1:
            flat = self.flat
            ids = flat.ids_array
            child_counts = flat.child_end - flat.child_start
            senders = ids[np.repeat(np.arange(self.num_nodes), child_counts)]
            receivers = ids[flat.child_index]
            sizes = np.full(receivers.size, REGISTRATION_BITS, dtype=np.int64)
            self.ledger.charge_array(
                senders,
                receivers,
                sizes,
                protocol=f"{self.protocol_prefix}:{name}:register",
            )
            self.ledger.advance_round(flat.height)

    # ------------------------------------------------------------------ #
    # Faults
    # ------------------------------------------------------------------ #
    def crash(self, positions) -> None:
        """Kill the nodes at the given canonical positions."""
        positions = np.asarray(positions, dtype=np.int64)
        self.alive[positions] = False
        telemetry = self.telemetry
        if telemetry.enabled and positions.size:
            # One aggregate injection event: per-node records at this scale
            # would reintroduce the O(n) Python the class exists to avoid.
            telemetry.event(
                "fault.injected",
                node=int(positions[0]),
                epoch=self.epoch,
                fault="crash",
                count=int(positions.size),
            )

    # ------------------------------------------------------------------ #
    # Epochs
    # ------------------------------------------------------------------ #
    def advance_epoch(
        self, changed_positions=None, new_counts=None
    ) -> dict[str, Any]:
        """Run one fused epoch: detect → attach → convergecast / suppress.

        ``changed_positions`` / ``new_counts`` describe this epoch's reading
        churn as parallel arrays (canonical positions and their new local
        counts).  Returns the epoch record (also appended to
        :attr:`records`).
        """
        from repro.faults.detection import heartbeat_sweep_vectorized
        from repro.faults.repair import attached_mask_vectorized

        if not self._queries:
            raise ConfigurationError(
                "no standing queries registered; call register_count_query() first"
            )
        telemetry = self.telemetry
        before_bits = self.ledger.total_bits

        # One epoch span wraps the fused chain, mirroring the fault
        # runner's span vocabulary — its close also feeds the attribution
        # sink from the span's own ledger mark (one array subtraction).
        totals = {"dirty": 0, "transmissions": 0, "suppressions": 0, "rounds": 0}
        with telemetry.span("epoch", epoch=self.epoch):
            heartbeat_bits, heartbeat_messages = heartbeat_sweep_vectorized(
                self.flat, self.alive, self.ledger, telemetry=telemetry
            )

            previously_attached = self.attached
            if telemetry.enabled:
                with telemetry.span("repair") as span:
                    self.attached = attached_mask_vectorized(self.flat, self.alive)
                    span.annotate(
                        detached=int(
                            self.alive.sum() - self.attached[self.alive].sum()
                        )
                    )
            else:
                self.attached = attached_mask_vectorized(self.flat, self.alive)
            self._evict_detached(previously_attached)

            if changed_positions is not None:
                changed_positions = np.asarray(changed_positions, dtype=np.int64)
                new_counts = np.asarray(new_counts, dtype=np.int64)
                self.counts[changed_positions] = new_counts

            with telemetry.span("stream", epoch=self.epoch) as stream_span:
                for name, query in self._queries.items():
                    with telemetry.span("convergecast", query=name):
                        self._run_query_epoch(
                            name, query, changed_positions, totals
                        )
                if telemetry.enabled:
                    stream_span.annotate(
                        dirty_nodes=totals["dirty"],
                        transmissions=totals["transmissions"],
                        suppressions=totals["suppressions"],
                    )

        record = {
            "epoch": self.epoch,
            "answers": dict(self.answers),
            "bits": self.ledger.total_bits - before_bits,
            "heartbeat_bits": heartbeat_bits,
            "heartbeat_messages": heartbeat_messages,
            "dirty": totals["dirty"],
            "transmissions": totals["transmissions"],
            "suppressions": totals["suppressions"],
            "rounds": totals["rounds"],
        }
        self.records.append(record)
        self.epoch += 1
        return record

    def _evict_detached(self, previously_attached) -> None:
        """Back cached deliveries of newly-detached children out of parents.

        A crashed (or cut-off) subtree stops transmitting, but its top's last
        delivered value still sits in the attached parent's ``child_sum`` —
        exactly the stale parent-side cache the reference engine evicts via
        the repair result's ``child_losses``.  Subtract the frontier
        children's cached deliveries and force their parents active so the
        correction convergecasts this very epoch.
        """
        frontier = np.flatnonzero(previously_attached & ~self.attached)
        if not frontier.size:
            return
        parents = self.flat.parent[frontier]
        frontier = frontier[(parents >= 0) & self.attached[parents]]
        if not frontier.size:
            return
        total_evicted = 0
        for query in self._queries.values():
            state = query.state
            evicted = frontier[state.has_delivered[frontier]]
            if not evicted.size:
                continue
            total_evicted += int(evicted.size)
            np.subtract.at(
                state.child_sum, self.flat.parent[evicted], state.last_delivered[evicted]
            )
            state.last_delivered[evicted] = 0
            state.has_delivered[evicted] = False
            query.forced[self.flat.parent[evicted]] = True
        telemetry = self.telemetry
        if telemetry.enabled and total_evicted:
            # Aggregated (no per-node Python on the vector path).
            telemetry.event(
                "cache.evict",
                epoch=self.epoch,
                count=total_evicted,
                site="detached",
            )

    def _run_query_epoch(
        self, name: str, query: _FieldQuery, changed_positions, totals
    ) -> None:
        from repro.streaming.vector_kernels import sweep_levels

        state = query.state
        flat = self.flat
        if not query.initialized:
            active = self.attached.copy()
            state.local[:] = self.counts
            state.has_local[:] = True
            query.initialized = True
        else:
            active = np.zeros(self.num_nodes, dtype=bool)
            if changed_positions is not None and changed_positions.size:
                moved = state.local[changed_positions] != self.counts[changed_positions]
                dirty_positions = changed_positions[moved]
                state.local[dirty_positions] = self.counts[dirty_positions]
                active[dirty_positions[self.attached[dirty_positions]]] = True
        if query.forced.any():
            active |= query.forced & self.attached
            query.forced[:] = False
        totals["dirty"] += int(active.sum())
        if not active.any():
            return

        deepest = int(flat.depth[np.flatnonzero(active)].max())
        slack = self.epsilon * query.scale / max(1, self.num_nodes)
        ids = flat.ids_array
        ledger = self.ledger
        protocol = f"{self.protocol_prefix}:{name}"

        def charge(tx_pos, tx_par, sizes):
            ledger.charge_array(ids[tx_pos], ids[tx_par], sizes, protocol=protocol)
            return None

        result = sweep_levels(
            parent=flat.parent,
            level_spans=[flat.level_spans[d] for d in range(deepest, -1, -1)],
            state=state,
            active=active,
            slack=slack,
            charge=charge,
            advance_round=ledger.advance_round,
        )
        totals["transmissions"] += result.transmissions
        totals["suppressions"] += result.suppressions
        totals["rounds"] = max(totals["rounds"], result.levels)
        if state.has_subtree[0]:
            answer = int(state.subtree_val[0])
            self.answers[name] = answer
            query.scale = max(query.scale, float(answer))
