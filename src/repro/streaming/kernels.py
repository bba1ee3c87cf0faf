"""The two per-query kernels of the continuous-query engine.

:class:`~repro.streaming.engine.ContinuousQueryEngine` gives every standing
query one kernel (see ``ContinuousQueryEngine._kernel_for``).  Both run the
same epoch — one level-synchronous convergecast, one round per depth,
deepest first, in which a node retransmits only when its subtree summary
moved beyond the ε-slack — and charge the same bits:

* :class:`FoldKernel`, the reference: per-node Python state and one
  ``decide`` callback per active node through
  :func:`~repro.protocols.epoch_convergecast.epoch_convergecast`.  Any
  summary type.
* :class:`SweepKernel`, count-valued summaries only: the per-node state is
  contiguous numpy columns aligned to the network's
  :class:`~repro.network.FlatTree`, and the epoch runs as whole-array level
  passes (:func:`~repro.streaming.vector_kernels.sweep_levels`).  Under
  ``execution="sharded"`` the passes fan out over subtree shards.

Both offer the engine one surface: ``refresh`` (new readings → dirty
nodes), ``run`` (one epoch's convergecast), ``root_summary``, and the
recovery rules ``reset`` / ``repair`` / ``root_change``.  The sweep applies
the fold's eviction rules as column writes over positions looked up in the
flat tree's :attr:`~repro.network.FlatTree.position_table`.  The
differential oracle (``tests/test_oracle.py``) holds both to the per-edge
reference: same ledger snapshot, same answers, same trace rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.radio import ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.protocols.epoch_convergecast import EpochStats, epoch_convergecast
from repro.streaming.queries import StandingQuery
from repro.streaming.summaries import CountSummary, StreamSummary
from repro.streaming.vector_kernels import SweepState, sweep_levels


@dataclass
class _NodeQueryState:
    """Per-(node, query) cached state of the fold."""

    local: StreamSummary | None = None
    children: dict[int, StreamSummary] = field(default_factory=dict)
    subtree: StreamSummary | None = None
    transmitted: StreamSummary | None = None


class FoldKernel:
    """The per-node ``decide`` fold: any summary type, one dict per node."""

    def __init__(self, network: SensorNetwork, query: StandingQuery) -> None:
        self.network = network
        self.query = query
        self.nodes = {node_id: _NodeQueryState() for node_id in network.attached_node_ids()}
        self.initialized = False
        self.scale = 0.0

    def reset(self) -> None:
        """Forget every cache (a full tree rebuild)."""
        self.nodes = {node_id: _NodeQueryState() for node_id in self.network.flat_tree.node_ids}
        self.initialized = False

    def repair(self, result, dirty: set[int]) -> None:
        """Apply an incremental repair's eviction rules; add who must resend."""
        nodes = self.nodes
        for node_id in result.removed:
            nodes.pop(node_id, None)
        for parent, child in result.child_losses:
            parent_state = nodes.get(parent)
            if parent_state is not None:
                parent_state.children.pop(child, None)
                dirty.add(parent)
        for node_id in result.parent_changed:
            node_state = nodes.get(node_id)
            if node_state is None:
                node_state = nodes[node_id] = _NodeQueryState()
            node_state.transmitted = None
            dirty.add(node_id)
        # Nodes that re-entered the tree after being dropped in an earlier
        # repair (a region detached for several epochs) need fresh state and
        # a full retransmission, even off the reversal path — their old
        # caches died with the states.
        for node_id in self.network.flat_tree.node_ids:
            if node_id not in nodes:
                nodes[node_id] = _NodeQueryState()
                dirty.add(node_id)

    def root_change(self, election, dirty: set[int]) -> None:
        """Migrate the caches along a re-rooted path; add who must resend."""
        nodes = self.nodes
        nodes.pop(election.old_root, None)
        previous: int | None = None
        for member in election.reversed_path:
            node_state = nodes.get(member)
            if node_state is None:
                node_state = nodes[member] = _NodeQueryState()
            if previous is not None:
                node_state.children.pop(previous, None)
            node_state.transmitted = None
            dirty.add(member)
            previous = member
        if election.new_root not in nodes:
            nodes[election.new_root] = _NodeQueryState()

    def refresh(self, updates: Mapping[int, Sequence[int]]) -> set[int]:
        """Recompute local summaries of updated nodes; return the dirty set.

        The new readings are the ``updates`` themselves (already assigned to
        the network); only the first pass reads every node's items back.
        Updates addressed to nodes the kernel no longer tracks (crashed or
        cut off by faults) are ignored — their readings cannot reach the
        root until a repair re-attaches them, at which point :meth:`repair`
        recreates their state.
        """
        if self.initialized:
            readings = updates
        else:
            readings = {node: self.network.items_of(node) for node in self.nodes}
            self.initialized = True
        dirty: set[int] = set()
        for node_id, items in readings.items():
            node_state = self.nodes.get(node_id)
            if node_state is None:
                continue
            new_local = self.query.local_summary(items)
            if node_state.local is None or not new_local.same_as(node_state.local):
                node_state.local = new_local
                dirty.add(node_id)
        return dirty

    def run(self, dirty: set[int], slack: float, protocol: str) -> EpochStats:
        """One epoch's convergecast from ``dirty``."""
        nodes = self.nodes
        query = self.query
        network = self.network
        root = network.flat_tree.root_id

        def decide(
            node_id: int, received: Mapping[int, StreamSummary]
        ) -> tuple[StreamSummary, int] | None:
            node_state = nodes[node_id]
            for child, summary in received.items():
                node_state.children[child] = summary
            subtree = node_state.local
            if subtree is None:  # a query registered before any epoch ran
                subtree = query.local_summary(network.items_of(node_id))
                node_state.local = subtree
            for summary in node_state.children.values():
                subtree = subtree.merge(summary)
            node_state.subtree = subtree
            if node_id == root:
                return None
            if node_state.transmitted is None:
                bits = subtree.serialized_bits()
            elif subtree.distance(node_state.transmitted) <= slack:
                return None
            else:
                # A wholesale content shift can make the delta cost more than
                # starting over; a real sender picks the cheaper frame, at the
                # price of one flag bit telling the receiver which it got.
                bits = 1 + min(
                    subtree.delta_bits(node_state.transmitted),
                    subtree.serialized_bits(),
                )
            node_state.transmitted = subtree
            return subtree, bits

        return epoch_convergecast(network, dirty, decide, protocol=protocol)

    def root_summary(self) -> StreamSummary | None:
        root_state = self.nodes.get(self.network.root_id)
        return None if root_state is None else root_state.subtree


class SweepKernel:
    """Count-valued queries as whole-array level sweeps over numpy columns.

    The columns are :class:`~repro.streaming.vector_kernels.SweepState`,
    one row per position of :attr:`flat` (the tree they are aligned to),
    plus ``tracked`` (rows with live state) and ``parked`` (see
    :meth:`realign`).  Transmissions still go through
    :meth:`SensorNetwork.send_batch` as ``(k, 2)`` link arrays, deepest
    level first, so lossy-radio retries charge as the fold's do; the
    suppression and delta arithmetic is the fold's ``decide`` rule for a
    count, with exact array varint widths.  ``shard_runner``, a callable
    returning the engine's worker pool for the current tree, fans each
    sweep out over subtree shards.
    """

    def __init__(
        self, network: SensorNetwork, query: StandingQuery, shard_runner=None
    ) -> None:
        self.network = network
        self.query = query
        self.shard_runner = shard_runner
        self.reset()
        self.scale = 0.0

    def reset(self) -> None:
        """Forget every cache (a full tree rebuild)."""
        self.flat = flat = self.network.flat_tree
        self.columns = SweepState.zeros(flat.num_nodes)
        self.tracked = np.ones(flat.num_nodes, dtype=bool)
        #: Delivered copies of rows the current tree dropped, by node id.
        self.parked: dict[int, int] = {}
        self.initialized = False

    def _pos_of(self, node_id: int) -> int:
        table = self.flat.position_table
        if 0 <= node_id < table.size:
            return int(table[node_id])
        return -1

    def realign(self) -> None:
        """Re-key the columns to the network's current flat tree.

        A pure id-join: surviving nodes carry their rows, nodes that left
        the tree are dropped, nodes new to the tree get fresh *untracked*
        rows for :meth:`repair` to activate.  The fold keeps a child's
        cached summary *in the parent's dict*, so it survives the child's
        removal until ``child_losses`` evicts it; here it lives in the
        child's row, so a dropped row whose parent stays parks its delivered
        copy in :attr:`parked` until the eviction runs.  No-op while the
        flat tree object is unchanged, so steady-state epochs never pay.
        """
        flat, old = self.network.flat_tree, self.flat
        if flat is old:
            return
        old_pos = old.positions_of(flat.ids_array)
        carried = old_pos >= 0
        carried_from = old_pos[carried]
        surviving = np.zeros(old.num_nodes, dtype=bool)
        surviving[carried_from] = True
        dropped = np.flatnonzero(~surviving)
        # A dropped row's delivered copy lives on only while the parent
        # holding it stays in the tree; a dropped parent takes it along.
        old_parent = old.parent[dropped]
        held = old_parent >= 0
        held[held] = surviving[old_parent[held]]
        cached = dropped[self.columns.has_delivered[dropped] & held]
        for position in cached.tolist():
            self.parked[int(old.ids_array[position])] = int(
                self.columns.last_delivered[position]
            )
        fresh = SweepState.zeros(flat.num_nodes)
        for column in SweepState.COLUMNS:
            getattr(fresh, column)[carried] = getattr(self.columns, column)[carried_from]
        tracked = np.zeros(flat.num_nodes, dtype=bool)
        tracked[carried] = self.tracked[carried_from]
        self.flat, self.columns, self.tracked = flat, fresh, tracked

    def repair(self, result, dirty: set[int]) -> None:
        """The fold's repair rules as column writes; add who must resend."""
        self.realign()
        flat = self.flat
        columns = self.columns
        # What the repair names, as positions in the repaired tree.
        losses = np.asarray(result.child_losses, dtype=np.int64).reshape(-1, 2)
        loss_parent = flat.positions_of(losses[:, 0])
        loss_child = flat.positions_of(losses[:, 1])
        changed = flat.positions_of(np.asarray(result.parent_changed, dtype=np.int64))
        changed = changed[changed >= 0]
        ids = flat.ids_array
        evicting = loss_parent >= 0
        evicting[evicting] = self.tracked[loss_parent[evicting]]
        self._evict_child_caches(
            loss_parent[evicting], loss_child[evicting], losses[evicting, 1]
        )
        dirty.update(losses[evicting, 0].tolist())
        # A reparented node's old cache holder either evicted the entry
        # above (child_losses) or left the tree with it; its next delivery
        # must be cached whole by the new parent.
        self.tracked[changed] = True
        for column in ("transmitted", "has_transmitted", "last_delivered", "has_delivered"):
            getattr(columns, column)[changed] = 0
        dirty.update(ids[changed].tolist())
        # Nodes re-entering the tree after an earlier removal: fresh rows
        # (realign left them untracked zeros) plus a full resync.
        fresh = np.flatnonzero(~self.tracked)
        self.tracked[fresh] = True
        dirty.update(ids[fresh].tolist())

    def root_change(self, election, dirty: set[int]) -> None:
        """The fold's cache migration as column writes; add who must resend."""
        old = self.flat
        self.realign()
        flat = self.flat
        columns = self.columns
        path = np.asarray(election.reversed_path, dtype=np.int64)
        positions = flat.positions_of(path)
        on_tree = positions >= 0
        # The deepest path member's old parent holds the copy it cached for
        # it.  If that parent was the dead root (or left the tree), the copy
        # died with it; else it stays there until the repair's child_losses
        # evict it, so it is parked.
        holder_alive = False
        if path.size and on_tree[-1] and old is not flat:
            old_position = int(old.positions_of(path[-1:])[0])
            old_parent = int(old.parent[old_position]) if old_position >= 0 else -1
            holder_alive = (
                old_parent >= 0 and self._pos_of(int(old.ids_array[old_parent])) >= 0
            )
        # Each path member now answers to its former child: it evicts the
        # copy it cached for that child (in the tree or not).
        evicting = on_tree[1:]
        members = positions[on_tree]
        self.tracked[members] = True
        self._evict_child_caches(
            positions[1:][evicting], positions[:-1][evicting], path[:-1][evicting]
        )
        columns.transmitted[members] = 0
        columns.has_transmitted[members] = False
        if path.size and on_tree[-1]:
            last = positions[-1]
            if holder_alive and columns.has_delivered[last]:
                self.parked[int(path[-1])] = int(columns.last_delivered[last])
            columns.last_delivered[last] = 0
            columns.has_delivered[last] = False
        root_position = self._pos_of(int(election.new_root))
        if root_position >= 0:
            self.tracked[root_position] = True
        dirty.update(path[on_tree].tolist())

    def _evict_child_caches(self, parent_pos, child_pos, child_ids) -> None:
        """Drop each parent's cached copy of its lost child's last delivery.

        Parallel arrays, one lost (parent, child) edge per entry; a child
        appears once.  The copy lives in the child's row while the child is
        in the tree, else in :attr:`parked`.
        """
        columns = self.columns
        cached = child_pos >= 0
        cached[cached] = columns.has_delivered[child_pos[cached]]
        rows = child_pos[cached]
        np.subtract.at(columns.child_sum, parent_pos[cached], columns.last_delivered[rows])
        columns.last_delivered[rows] = 0
        columns.has_delivered[rows] = False
        if self.parked:
            for parent, child in zip(
                parent_pos[~cached].tolist(), child_ids[~cached].tolist()
            ):
                if child in self.parked:
                    columns.child_sum[parent] -= self.parked.pop(child)

    def refresh(self, updates: Mapping[int, Sequence[int]]) -> set[int]:
        """The fold's :meth:`FoldKernel.refresh` over the ``local`` column."""
        self.realign()
        columns = self.columns
        if self.initialized:
            readings = updates.items()
        else:
            readings = [
                (node_id, self.network.items_of(node_id))
                for node_id in self.flat.ids_array[self.tracked].tolist()
            ]
            self.initialized = True
        dirty: set[int] = set()
        for node_id, items in readings:
            node_id = int(node_id)
            position = self._pos_of(node_id)
            if position < 0 or not self.tracked[position]:
                continue
            new_local = self.query.local_summary(items).count
            if not columns.has_local[position] or int(columns.local[position]) != int(
                new_local
            ):
                columns.local[position] = new_local
                columns.has_local[position] = True
                dirty.add(node_id)
        return dirty

    def run(self, dirty: set[int], slack: float, protocol: str) -> EpochStats:
        """One epoch's sweep from ``dirty``."""
        if not dirty:
            return EpochStats(rounds=0, activated=0, transmissions=0, suppressions=0)
        flat = self.flat
        columns = self.columns
        positions = flat.position_table[
            np.fromiter((int(node) for node in dirty), dtype=np.int64, count=len(dirty))
        ]
        # Pending-dirty nodes created by a repair have no local summary yet;
        # compute it lazily from their items, as the fold's decide() does.
        missing = positions[~columns.has_local[positions]]
        node_ids = flat.node_ids
        for position in missing.tolist():
            columns.local[position] = self.query.local_summary(
                self.network.items_of(node_ids[position])
            ).count
            columns.has_local[position] = True

        active = np.zeros(flat.num_nodes, dtype=bool)
        active[positions] = True
        deepest = int(flat.depth[positions].max())
        if self.shard_runner is not None:
            stats = self._run_sharded(active, deepest, slack, protocol)
        else:
            stats = self._run_inprocess(active, deepest, slack, protocol)
        telemetry = self.network.telemetry
        if telemetry.enabled:
            telemetry.count(
                "sweep.epochs", 1, protocol=protocol, path=self.network.execution
            )
            telemetry.count("sweep.rounds", stats.rounds, protocol=protocol)
            telemetry.count("sweep.activated", stats.activated, protocol=protocol)
            telemetry.count("sweep.transmissions", stats.transmissions, protocol=protocol)
            telemetry.count("sweep.suppressions", stats.suppressions, protocol=protocol)
        return stats

    def _run_inprocess(self, active, deepest: int, slack: float, protocol: str) -> EpochStats:
        flat = self.flat
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
        # level whose endpoints are all alive cannot fail or lose a copy, so
        # its links only have to reach the ledger before the sweep is over:
        # they are buffered and sent as one batch.  The test is about
        # delivery, not draw order: under any other radio a level's
        # deliveries decide what the next level sends.  Any other level
        # flushes the buffer and is sent on the spot, which keeps the
        # exception, its raise point and the charged prefix exactly those of
        # one send per level.
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
                state=self.columns,
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

    def _run_sharded(self, active, deepest: int, slack: float, protocol: str) -> EpochStats:
        """Each worker sweeps its shard against a private ledger; the parent
        folds them back with one ledger merge (spans ``shard.sweep`` and
        ``shard.merge``).  Needs perfect links: a seeded radio counts each
        link's sends in this process, and the workers neither read nor
        return those counts."""
        network = self.network
        if type(network.radio) is not ReliableRadio:
            raise ConfigurationError(
                "sharded execution requires ReliableRadio: a seeded radio "
                "counts each link's sends in this process, and shard workers "
                "neither read nor return those counts"
            )
        if network.ledger.per_node_budget_bits is not None:
            raise ConfigurationError(
                "sharded execution does not support per-node bit budgets"
            )
        runner = self.shard_runner()
        if runner is None:  # degenerate tree: nothing below the root
            return self._run_inprocess(active, deepest, slack, protocol)

        columns = self.columns
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

    def root_summary(self) -> CountSummary | None:
        position = self._pos_of(self.network.root_id)
        if position < 0 or not self.columns.has_subtree[position]:
            return None
        return CountSummary(int(self.columns.subtree_val[position]))
