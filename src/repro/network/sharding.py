"""Subtree sharding: the multiprocessing backend of the streaming column sweep.

``execution="sharded"`` partitions the field along the *root-adjacent cut*:
every child subtree of the root is an indivisible unit (all of a non-root
node's tree edges stay inside its unit, so a shard can sweep its slice with
no cross-shard traffic below the root), and units are packed into
``num_shards`` bins by longest-processing-time order on subtree size.  Each
worker process runs the same level-sweep kernel
(:func:`repro.streaming.vector_kernels.sweep_levels`) over its shard's
slice of the state columns, charging a **private**, unsized
:class:`~repro.network.CommunicationLedger`; the parent then

* scatters the updated columns back,
* folds the worker ledgers into one and applies a single
  :meth:`~repro.network.CommunicationLedger.merge` against the network
  ledger (the ``shard.merge`` telemetry span),
* plays the root's turn itself: shard tops transmitted to the root, so
  their delivered deltas arrive as one summed update.

Because per-node and per-protocol ledger counters are additive and rounds
are advanced once by the parent (one per swept level, the reference
schedule), the merged ledger is bit-for-bit identical to the single-process
batched sweep — the property ``benchmarks/test_paths.py`` asserts at
n = 10,000.

Workers are plain ``multiprocessing`` fork workers created lazily and
reused across epochs; shard statics (positions, local parents, level spans)
ship once via the pool initializer, per-epoch tasks carry only the state
slices.  Set ``REPRO_SHARD_PROCESSES=0`` (or construct
``ShardRunner(processes=0)``) to run the shard tasks inline in-process —
same results, no fork — which is also the automatic fallback where fork is
unavailable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._util.validation import require_positive
from repro.network.accounting import CommunicationLedger
from repro.streaming.vector_kernels import (
    EXTERNAL_PARENT,
    SweepResult,
    SweepState,
    sweep_levels,
)


@dataclass
class Shard:
    """One worker's static slice of the flat tree.

    ``positions`` are the global canonical positions of the shard's nodes in
    ascending order (level-major, ascending id within a level — the charge
    order the reference paths use).  ``parent_local`` points into the shard's
    own arrays, with :data:`~repro.streaming.vector_kernels.EXTERNAL_PARENT`
    marking depth-1 tops whose parent is the (unsharded) root.
    ``level_spans[d]`` slices the shard arrays at global tree depth ``d``.
    """

    index: int
    positions: "np.ndarray"
    parent_local: "np.ndarray"
    level_spans: list[tuple[int, int]]
    max_depth: int
    ids: "np.ndarray"
    root_id: int


@dataclass
class ShardPlan:
    """A root-adjacent-cut partition of a flat tree."""

    shards: list[Shard]
    num_nodes: int


@dataclass
class ShardOutcome:
    """What one worker hands back: updated slices, stats, private ledger."""

    index: int
    state: SweepState
    active: "np.ndarray"
    result: SweepResult
    ledger: CommunicationLedger


def build_shard_plan(flat, num_shards: int) -> ShardPlan | None:
    """Partition ``flat`` into at most ``num_shards`` subtree shards.

    Returns ``None`` for degenerate trees (a bare root): there is nothing
    below the cut to fan out.
    """
    require_positive(num_shards, "num_shards")
    num_nodes = flat.num_nodes
    if num_nodes <= 1 or flat.height == 0:
        return None
    # Which root-child subtree owns each position, by one pass per level.
    tops = flat.child_index[flat.child_start[0] : flat.child_end[0]]
    owner = np.full(num_nodes, -1, dtype=np.int64)
    owner[tops] = np.arange(tops.size, dtype=np.int64)
    for start, end in flat.level_spans[2:]:
        owner[start:end] = owner[flat.parent[start:end]]
    # LPT packing: biggest subtree first, into the least-loaded bin.
    sizes = np.bincount(owner[1:], minlength=tops.size)
    bins = min(num_shards, int(tops.size))
    loads = [0] * bins
    shard_of_unit = np.zeros(tops.size, dtype=np.int64)
    for unit in np.argsort(-sizes, kind="stable").tolist():
        target = loads.index(min(loads))
        shard_of_unit[unit] = target
        loads[target] += int(sizes[unit])
    shard_of_node = shard_of_unit[owner[1:]]  # positions 1..n-1

    ids = flat.ids_array
    shards: list[Shard] = []
    for index in range(bins):
        positions = np.flatnonzero(shard_of_node == index).astype(np.int64) + 1
        if not positions.size:
            continue
        global_parent = flat.parent[positions]
        is_top = global_parent == 0
        local = np.searchsorted(positions, global_parent)
        parent_local = np.where(is_top, EXTERNAL_PARENT, local).astype(np.int64)
        depths = flat.depth[positions]
        max_depth = int(depths.max())
        level_spans = [(0, 0)]  # depth 0 (the root) is never in a shard
        for depth in range(1, max_depth + 1):
            level_spans.append(
                (
                    int(np.searchsorted(depths, depth, side="left")),
                    int(np.searchsorted(depths, depth, side="right")),
                )
            )
        shards.append(
            Shard(
                index=len(shards),
                positions=positions,
                parent_local=parent_local,
                level_spans=level_spans,
                max_depth=max_depth,
                ids=ids[positions],
                root_id=int(flat.root_id),
            )
        )
    if not shards:
        return None
    return ShardPlan(shards=shards, num_nodes=num_nodes)


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #
_WORKER_SHARDS: Sequence[Shard] = ()


def _install_shards(shards: Sequence[Shard]) -> None:
    global _WORKER_SHARDS
    _WORKER_SHARDS = shards


def _run_shard_task(task: dict) -> ShardOutcome:
    """Sweep one shard slice against a private ledger (runs in a worker)."""
    shard = _WORKER_SHARDS[task["shard"]]
    state = SweepState(**task["columns"])
    active = task["active"]
    slack = task["slack"]
    protocol = task["protocol"]
    deepest = min(task["deepest"], shard.max_depth)
    ledger = CommunicationLedger()
    ids = shard.ids
    root_id = shard.root_id

    def charge(tx_pos, tx_par, sizes):
        external = tx_par == EXTERNAL_PARENT
        receivers = np.where(external, root_id, ids[np.maximum(tx_par, 0)])
        ledger.charge_array(ids[tx_pos], receivers, sizes, protocol=protocol)
        return None  # perfect links: the engine enforces ReliableRadio

    result = sweep_levels(
        parent=shard.parent_local,
        level_spans=[shard.level_spans[depth] for depth in range(deepest, 0, -1)],
        state=state,
        active=active,
        slack=slack,
        charge=charge,
    )
    return ShardOutcome(
        index=shard.index, state=state, active=active, result=result, ledger=ledger
    )


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
class ShardRunner:
    """Dispatch shard sweep tasks to a reusable fork pool (or inline)."""

    def __init__(self, plan: ShardPlan, processes: int | None = None) -> None:
        self.plan = plan
        if processes is None:
            env = os.environ.get("REPRO_SHARD_PROCESSES")
            if env is not None:
                processes = int(env)
            else:
                processes = min(len(plan.shards), max(2, os.cpu_count() or 1))
        self._processes = processes
        self._pool = None

    def _ensure_pool(self):
        if self._processes <= 0:
            return None
        if self._pool is None:
            import multiprocessing

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - no fork on this platform
                self._processes = 0
                return None
            self._pool = context.Pool(
                processes=self._processes,
                initializer=_install_shards,
                initargs=(self.plan.shards,),
            )
        return self._pool

    def sweep(
        self, columns: SweepState, active, *, deepest: int, slack: float, protocol: str
    ) -> list[tuple[Shard, ShardOutcome]]:
        """Run the level sweep over every shard with active work."""
        work: list[tuple[Shard, dict]] = []
        for shard in self.plan.shards:
            shard_active = active[shard.positions]
            if not shard_active.any():
                continue
            work.append(
                (
                    shard,
                    {
                        "shard": shard.index,
                        "columns": {
                            name: getattr(columns, name)[shard.positions]
                            for name in SweepState.COLUMNS
                        },
                        "active": shard_active,
                        "deepest": deepest,
                        "slack": slack,
                        "protocol": protocol,
                    },
                )
            )
        if not work:
            return []
        pool = self._ensure_pool()
        if pool is None:
            _install_shards(self.plan.shards)
            outcomes = [_run_shard_task(task) for _, task in work]
        else:
            outcomes = pool.map(_run_shard_task, [task for _, task in work])
        return [(shard, outcome) for (shard, _), outcome in zip(work, outcomes)]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass
