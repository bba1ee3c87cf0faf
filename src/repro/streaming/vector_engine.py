"""Vectorized and sharded execution of the continuous-query engine.

:class:`VectorStreamEngine` is a drop-in :class:`ContinuousQueryEngine`
for *count-valued* standing queries (COUNT / COUNTP): same constructor,
same ``register`` / ``advance_epoch`` / ``apply_repair`` /
``apply_root_change`` surface, same trace records — but the per-(node,
query) dict state is replaced by contiguous numpy columns aligned to the
network's :class:`~repro.network.FlatTree`, and the per-epoch sweep runs as
whole-array level passes (:mod:`repro.streaming.vector_kernels`) instead of
per-node ``decide`` callbacks.

Equivalence contract (enforced against the per-edge reference by the
differential oracle, ``tests/test_oracle.py``): for any topology, radio
model, fault script and update stream, the ledger snapshot and the
per-epoch answers are bit-for-bit identical to the batched and per-edge
paths.  The ingredients:

* transmissions still go through :meth:`SensorNetwork.send_batch` as
  ``(k, 2)`` link arrays, deepest level first and in ascending node-id
  order within a level — so radio randomness is consumed in exactly the
  reference order and lossy-radio retries charge identically.  On perfect
  links, where neither order nor timing can matter, the levels of a sweep
  are buffered and charged in **one** call; any level that could fail is
  sent on its own (see :meth:`VectorStreamEngine._run_inprocess`);
* the suppression / delta arithmetic is the count-summary specialization of
  the engine's ``decide`` rule, computed with exact vectorized varint
  widths;
* repairs re-synchronize the columns with the same eviction rules the
  reference applies to its dicts (:meth:`apply_repair`,
  :meth:`apply_root_change`), as column writes over positions looked up in
  the flat tree's :attr:`~repro.network.FlatTree.position_table`.

When ``network.execution == "sharded"`` the sweep fans out over subtree
shards (:mod:`repro.network.sharding`): each worker process runs the same
kernel over its shard slice against a private ledger, and the parent folds
the results back with **one** ledger merge per query per epoch — spans
``shard.sweep`` and ``shard.merge`` record the fan-out in the telemetry
phase breakdown.  Sharded execution requires perfect links
(:class:`~repro.network.radio.ReliableRadio`): a seeded lossy radio is a
single RNG stream, which cannot be split across processes and stay
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.energy import EnergyModel
from repro.network.radio import ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.protocols.broadcast import broadcast
from repro.protocols.epoch_convergecast import EpochStats
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import REGISTRATION_BITS, StandingQuery
from repro.streaming.summaries import CountSummary
from repro.streaming.vector_kernels import SweepState, sweep_levels


@dataclass
class _VectorQueryState:
    """Per-query engine state: sweep columns plus the reference bookkeeping.

    Field names ``query`` / ``initialized`` / ``scale`` match the reference
    ``_QueryState`` so the inherited slack, answer-bound and introspection
    helpers work unchanged.
    """

    query: StandingQuery
    state: SweepState
    tracked: "np.ndarray"
    initialized: bool = False
    scale: float = 0.0


@dataclass
class _EvictionLog:
    """Cache values of rows dropped by a re-alignment, keyed by node id.

    The reference engine stores a child's cached summary *in the parent's
    dict*, so it survives the child's removal until ``child_losses`` evicts
    it, or until the parent itself leaves the tree.  The vectorized engine
    stores it in the child's row; when a repair drops that row while the
    parent stays, or a root change re-parents the winner fragment's root
    away from a live parent, the value is parked here until the eviction
    runs.
    """

    by_query: dict[str, dict[int, int]] = field(default_factory=dict)


class VectorStreamEngine(ContinuousQueryEngine):
    """Numpy-columnar continuous-query engine for count-valued queries."""

    def __init__(
        self,
        network: SensorNetwork,
        epsilon: float = 0.1,
        energy_model: EnergyModel | None = None,
        *,
        shards: int = 4,
        shard_processes: int | None = None,
    ) -> None:
        super().__init__(network, epsilon, energy_model)
        self._flat = None
        self._dropped = _EvictionLog()
        self._shards = shards
        self._shard_processes = shard_processes
        self._shard_runner = None
        self._realign()

    # ------------------------------------------------------------------ #
    # Alignment with the (possibly repaired) flat tree
    # ------------------------------------------------------------------ #
    def _realign(self) -> None:
        """Re-key every query's columns to the network's current flat tree.

        A pure id-join: surviving nodes carry their rows, nodes that left
        the tree are dropped (their delivered-cache values parked in the
        eviction log), nodes new to the tree get fresh *untracked* rows for
        :meth:`apply_repair` to activate.  No-op while the flat tree object
        is unchanged, so steady-state epochs never pay for it.
        """
        flat = self.network.flat_tree
        if flat is self._flat:
            return
        ids = flat.ids_array
        if ids.size and int(ids.min()) < 0:
            raise ConfigurationError(
                "the vectorized engine requires non-negative node ids"
            )

        if self._flat is not None and self._queries:
            old_ids = self._flat.ids_array
            old_pos = self._flat.positions_of(ids)
            carried = old_pos >= 0
            carried_from = old_pos[carried]
            surviving = np.zeros(self._flat.num_nodes, dtype=bool)
            surviving[carried_from] = True
            dropped_pos = np.flatnonzero(~surviving)
            # A dropped row's delivered copy lives on only while the parent
            # holding it stays in the tree; a dropped parent takes it along.
            old_parent = self._flat.parent[dropped_pos]
            held = old_parent >= 0
            held[held] = surviving[old_parent[held]]
            for name, state in self._queries.items():
                old = state.state
                if dropped_pos.size:
                    parked = self._dropped.by_query.setdefault(name, {})
                    cached = dropped_pos[old.has_delivered[dropped_pos] & held]
                    for position in cached.tolist():
                        parked[int(old_ids[position])] = int(
                            old.last_delivered[position]
                        )
                fresh = SweepState.zeros(flat.num_nodes)
                for column in SweepState.COLUMNS:
                    getattr(fresh, column)[carried] = getattr(old, column)[
                        carried_from
                    ]
                tracked = np.zeros(flat.num_nodes, dtype=bool)
                tracked[carried] = state.tracked[carried_from]
                state.state = fresh
                state.tracked = tracked
        self._flat = flat
        self._shard_runner = None  # shard plans are per-tree

    def _pos_of(self, node_id: int) -> int:
        table = self._flat.position_table
        if 0 <= node_id < table.size:
            return int(table[node_id])
        return -1

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, query: StandingQuery, announce: bool = True) -> None:
        if name in self._queries:
            raise ConfigurationError(f"query {name!r} is already registered")
        try:
            probe = query.local_summary([])
        except Exception:  # pragma: no cover - exotic custom queries
            probe = None
        if not isinstance(probe, CountSummary):
            raise ConfigurationError(
                f"{type(query).__name__} is not count-valued; the vectorized "
                "engine supports COUNT / COUNTP — register it on "
                "ContinuousQueryEngine instead"
            )
        self._realign()
        num = self._flat.num_nodes
        self._queries[name] = _VectorQueryState(
            query=query,
            state=SweepState.zeros(num),
            tracked=np.ones(num, dtype=bool),
        )
        if announce:
            broadcast(
                self.network,
                {"register": name, "kind": query.kind},
                REGISTRATION_BITS,
                protocol=f"{self.protocol_prefix}:{name}:register",
            )

    # ------------------------------------------------------------------ #
    # Fault recovery
    # ------------------------------------------------------------------ #
    def apply_root_change(self, election) -> None:
        if election is None:
            return
        old_flat = self._flat
        self._realign()
        flat = self._flat
        path = np.asarray(election.reversed_path, dtype=np.int64)
        positions = flat.positions_of(path)
        on_tree = positions >= 0
        # The deepest path member's old parent holds the copy it cached for
        # it.  If that parent was the dead root (or left the tree), the copy
        # died with it; else it stays there until the repair's child_losses
        # evict it, so it moves to the eviction log.
        holder_alive = False
        if path.size and on_tree[-1] and old_flat is not flat:
            old_position = int(old_flat.positions_of(path[-1:])[0])
            old_parent = int(old_flat.parent[old_position]) if old_position >= 0 else -1
            holder_alive = (
                old_parent >= 0 and self._pos_of(int(old_flat.ids_array[old_parent])) >= 0
            )
        # Each path member now answers to its former child: it evicts the
        # copy it cached for that child (in the tree or not).
        evicting = on_tree[1:]
        members = positions[on_tree]
        root_position = self._pos_of(int(election.new_root))
        for name, state in self._queries.items():
            columns = state.state
            state.tracked[members] = True
            self._evict_child_caches(
                columns,
                self._dropped.by_query.get(name, {}),
                positions[1:][evicting],
                positions[:-1][evicting],
                path[:-1][evicting],
            )
            columns.transmitted[members] = 0
            columns.has_transmitted[members] = False
            if path.size and on_tree[-1]:
                if holder_alive and columns.has_delivered[positions[-1]]:
                    self._dropped.by_query.setdefault(name, {})[int(path[-1])] = int(
                        columns.last_delivered[positions[-1]]
                    )
                columns.last_delivered[positions[-1]] = 0
                columns.has_delivered[positions[-1]] = False
            if root_position >= 0:
                state.tracked[root_position] = True
        self._pending_dirty.update(path[on_tree].tolist())
        self._pending_dirty.add(int(election.new_root))
        self._record_root_change_evictions(tuple(election.reversed_path))

    def apply_repair(self, result) -> None:
        if result is None or not getattr(result, "changed_anything", True):
            return
        self._realign()
        flat = self._flat
        num = flat.num_nodes
        if result.rebuilt:
            for state in self._queries.values():
                state.state = SweepState.zeros(num)
                state.tracked = np.ones(num, dtype=bool)
                state.initialized = False
            self._dropped.by_query.clear()
            self._pending_dirty = set(self.network.tree.parent)
            self._record_evictions(result)
            return
        # What the repair names, as positions in the repaired tree: every
        # rule below is then a column write over those positions.
        losses = np.asarray(result.child_losses, dtype=np.int64).reshape(-1, 2)
        loss_parent = flat.positions_of(losses[:, 0])
        loss_child = flat.positions_of(losses[:, 1])
        changed = flat.positions_of(np.asarray(result.parent_changed, dtype=np.int64))
        changed = changed[changed >= 0]
        ids = flat.ids_array
        dirty = self._pending_dirty
        for name, state in self._queries.items():
            columns = state.state
            evicting = loss_parent >= 0
            evicting[evicting] = state.tracked[loss_parent[evicting]]
            self._evict_child_caches(
                columns,
                self._dropped.by_query.get(name, {}),
                loss_parent[evicting],
                loss_child[evicting],
                losses[evicting, 1],
            )
            dirty.update(losses[evicting, 0].tolist())
            # A reparented node's old cache holder either evicted the entry
            # above (child_losses) or left the tree with it; its next
            # delivery must be cached whole by the new parent.
            state.tracked[changed] = True
            for column in ("transmitted", "has_transmitted", "last_delivered", "has_delivered"):
                getattr(columns, column)[changed] = 0
            dirty.update(ids[changed].tolist())
            # Nodes re-entering the tree after an earlier removal: fresh
            # rows (realign left them untracked zeros) plus a full resync.
            fresh = np.flatnonzero(~state.tracked)
            state.tracked[fresh] = True
            dirty.update(ids[fresh].tolist())
        self._record_evictions(result)

    @staticmethod
    def _evict_child_caches(
        columns: SweepState, parked: dict[int, int], parent_pos, child_pos, child_ids
    ) -> None:
        """Drop each parent's cached copy of its lost child's last delivery.

        Parallel arrays, one lost (parent, child) edge per entry; a child
        appears once.  The copy lives in the child's row while the child is
        in the tree, else in ``parked`` (see :class:`_EvictionLog`).
        """
        cached = child_pos >= 0
        cached[cached] = columns.has_delivered[child_pos[cached]]
        rows = child_pos[cached]
        np.subtract.at(columns.child_sum, parent_pos[cached], columns.last_delivered[rows])
        columns.last_delivered[rows] = 0
        columns.has_delivered[rows] = False
        if parked:
            for parent, child in zip(
                parent_pos[~cached].tolist(), child_ids[~cached].tolist()
            ):
                if child in parked:
                    columns.child_sum[parent] -= parked.pop(child)

    # ------------------------------------------------------------------ #
    # Epoch internals (the inherited advance_epoch drives these)
    # ------------------------------------------------------------------ #
    def _refresh_local_summaries(self, state, updates) -> set[int]:
        self._realign()
        columns = state.state
        query = state.query
        network = self.network
        if state.initialized:
            candidates = [int(node_id) for node_id in updates]
        else:
            candidates = [
                int(node_id)
                for node_id in self._flat.ids_array[state.tracked].tolist()
            ]
            state.initialized = True
        dirty: set[int] = set()
        for node_id in candidates:
            position = self._pos_of(node_id)
            if position < 0 or not state.tracked[position]:
                continue
            new_local = query.local_summary(network.node(node_id).items).count
            if not columns.has_local[position] or int(
                columns.local[position]
            ) != int(new_local):
                columns.local[position] = new_local
                columns.has_local[position] = True
                dirty.add(node_id)
        return dirty

    def _run_query_epoch(self, name: str, state, dirty: set[int]) -> EpochStats:
        if not dirty:
            return EpochStats(rounds=0, activated=0, transmissions=0, suppressions=0)
        flat = self._flat
        columns = state.state
        positions = flat.position_table[
            np.fromiter((int(node) for node in dirty), dtype=np.int64, count=len(dirty))
        ]
        # Pending-dirty nodes created by a repair have no local summary yet;
        # compute it lazily from their items, as the reference decide() does.
        missing = positions[~columns.has_local[positions]]
        node_ids = flat.node_ids
        for position in missing.tolist():
            node_id = node_ids[position]
            columns.local[position] = state.query.local_summary(
                self.network.node(node_id).items
            ).count
            columns.has_local[position] = True

        active = np.zeros(flat.num_nodes, dtype=bool)
        active[positions] = True
        deepest = int(flat.depth[positions].max())
        slack = self._slack(state)
        protocol = f"{self.protocol_prefix}:{name}"
        if self.network.execution == "sharded":
            stats = self._run_sharded(
                columns, active, deepest, slack, protocol
            )
        else:
            stats = self._run_inprocess(
                columns, active, deepest, slack, protocol
            )
        telemetry = self.network.telemetry
        if telemetry.enabled:
            telemetry.count(
                "sweep.epochs", 1, protocol=protocol, path=self.network.execution
            )
            telemetry.count("sweep.rounds", stats.rounds, protocol=protocol)
            telemetry.count("sweep.activated", stats.activated, protocol=protocol)
            telemetry.count(
                "sweep.transmissions", stats.transmissions, protocol=protocol
            )
            telemetry.count(
                "sweep.suppressions", stats.suppressions, protocol=protocol
            )
        return stats

    def _run_inprocess(
        self, columns: SweepState, active, deepest: int, slack: float, protocol: str
    ) -> EpochStats:
        flat = self._flat
        ids = flat.ids_array
        network = self.network

        def send(tx_pos, tx_par, sizes):
            return network.send_batch(
                np.stack((ids[tx_pos], ids[tx_par]), axis=1),
                sizes,
                protocol=protocol,
                require_edge=False,
            )

        # One charge per sweep.  On perfect links with no per-node budget a
        # level whose endpoints are all alive cannot fail, lose a copy or
        # depend on link order, so its links only have to reach the ledger
        # before the sweep is over: they are buffered and sent as one batch.
        # Any other level flushes the buffer and is sent on the spot, which
        # keeps the exception, its raise point and the charged prefix exactly
        # those of one send per level.
        alive = network.alive_mask
        deferrable = (
            alive is not None
            and type(network.radio) is ReliableRadio
            and network.ledger.per_node_budget_bits is None
        )
        # ``up``: which tree positions are alive; ``None`` while all of them are.
        up = None
        if deferrable and network.num_alive < network.num_nodes:
            up = alive[ids]
            if bool(up.all()):
                up = None
        pending: list[tuple] = []

        def flush() -> None:
            if pending:
                levels = [np.concatenate(column) for column in zip(*pending)]
                pending.clear()
                send(*levels)

        def charge(tx_pos, tx_par, sizes):
            if deferrable and (
                up is None or (bool(up[tx_pos].all()) and bool(up[tx_par].all()))
            ):
                pending.append((tx_pos, tx_par, sizes))
                return None
            flush()
            delivered = send(tx_pos, tx_par, sizes) > 0
            return None if bool(delivered.all()) else delivered

        try:
            result = sweep_levels(
                parent=flat.parent,
                level_spans=[flat.level_spans[depth] for depth in range(deepest, -1, -1)],
                state=columns,
                active=active,
                slack=slack,
                charge=charge,
                advance_round=network.ledger.advance_round,
            )
        finally:
            flush()
        return EpochStats(
            rounds=deepest + 1,
            activated=result.activated,
            transmissions=result.transmissions,
            suppressions=result.suppressions,
        )

    # ------------------------------------------------------------------ #
    # Sharded execution
    # ------------------------------------------------------------------ #
    def _ensure_shard_runner(self):
        if self._shard_runner is None:
            from repro.network.sharding import ShardRunner, build_shard_plan

            plan = build_shard_plan(self._flat, self._shards)
            if plan is not None:
                self._shard_runner = ShardRunner(
                    plan, processes=self._shard_processes
                )
        return self._shard_runner

    def _run_sharded(
        self, columns: SweepState, active, deepest: int, slack: float, protocol: str
    ) -> EpochStats:
        network = self.network
        if type(network.radio) is not ReliableRadio:
            raise ConfigurationError(
                "sharded execution requires ReliableRadio: a seeded lossy "
                "radio is one RNG stream and cannot be split across workers"
            )
        if network.ledger.per_node_budget_bits is not None:
            raise ConfigurationError(
                "sharded execution does not support per-node bit budgets"
            )
        runner = self._ensure_shard_runner()
        if runner is None:  # degenerate tree: nothing below the root
            return self._run_inprocess(columns, active, deepest, slack, protocol)

        telemetry = network.telemetry
        with telemetry.span("shard.sweep", shards=len(runner.plan.shards)) as span:
            results = runner.sweep(
                columns, active, deepest=deepest, slack=slack, protocol=protocol
            )
            if telemetry.enabled:
                # Per-worker breakdown, keyed by shard id, so attribution
                # can be sliced per shard instead of one opaque fan-out.
                span.annotate(
                    dispatched=len(results),
                    shard_nodes={
                        str(shard.index): int(shard.positions.size)
                        for shard, _ in results
                    },
                    shard_bits={
                        str(shard.index): int(outcome.ledger.total_bits)
                        for shard, outcome in results
                    },
                )
        activated = transmissions = suppressions = 0
        external_delta = 0
        external_count = 0
        combined = None
        for shard, outcome in results:
            columns.scatter(shard.positions, outcome.state)
            active[shard.positions] = outcome.active
            activated += outcome.result.activated
            transmissions += outcome.result.transmissions
            suppressions += outcome.result.suppressions
            external_delta += outcome.result.external_delta
            external_count += outcome.result.external_count
            if combined is None:
                combined = outcome.ledger
            else:
                combined.merge(outcome.ledger)
        with telemetry.span("shard.merge") as span:
            if combined is not None:
                network.ledger.merge(combined)
                if telemetry.enabled:
                    span.annotate(
                        bits=combined.total_bits,
                        messages=combined.total_messages,
                        shards=len(results),
                    )
        # The root's own turn: deliveries from shard tops landed as one
        # summed delta; the root merges and never transmits.
        if external_count:
            columns.child_sum[0] += external_delta
            active[0] = True
        if active[0]:
            activated += 1
            columns.subtree_val[0] = columns.local[0] + columns.child_sum[0]
            columns.has_subtree[0] = True
        network.ledger.advance_round(deepest + 1)
        return EpochStats(
            rounds=deepest + 1,
            activated=activated,
            transmissions=transmissions,
            suppressions=suppressions,
        )

    def close(self) -> None:
        """Shut down the shard worker pool, if one was started."""
        if self._shard_runner is not None:
            self._shard_runner.close()
            self._shard_runner = None

    # ------------------------------------------------------------------ #
    # Answers
    # ------------------------------------------------------------------ #
    def root_summary(self, name: str) -> CountSummary | None:
        """The root's merged count summary (the reference accessor's twin)."""
        try:
            state = self._queries[name]
        except KeyError:
            raise ConfigurationError(f"unknown query {name!r}") from None
        columns = state.state
        root_position = self._pos_of(self.network.root_id)
        if root_position < 0 or not columns.has_subtree[root_position]:
            return None
        return CountSummary(int(columns.subtree_val[root_position]))

    def _read_answer(self, name: str, state) -> None:
        columns = state.state
        root_position = self._pos_of(self.network.root_id)
        if root_position < 0 or not columns.has_subtree[root_position]:
            return
        summary = CountSummary(int(columns.subtree_val[root_position]))
        self._answers[name] = state.query.answer(summary)
        state.scale = max(state.scale, state.query.scale(summary))


def engine_for(
    network: SensorNetwork,
    epsilon: float = 0.1,
    energy_model: EnergyModel | None = None,
    **kwargs,
) -> ContinuousQueryEngine:
    """The engine implementation matching ``network.execution``.

    ``"vectorized"`` and ``"sharded"`` networks get a
    :class:`VectorStreamEngine`; everything else gets the reference
    :class:`ContinuousQueryEngine`.
    """
    if network.execution in ("vectorized", "sharded"):
        return VectorStreamEngine(network, epsilon, energy_model, **kwargs)
    return ContinuousQueryEngine(network, epsilon, energy_model)
