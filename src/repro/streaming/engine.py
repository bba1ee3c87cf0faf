"""The continuous-query engine: incremental aggregates over evolving readings.

:class:`ContinuousQueryEngine` registers standing queries against a
:class:`~repro.network.SensorNetwork` and advances the network through
*epochs*.  Per epoch it

1. applies the stream's reading updates to the nodes (sensing is free),
2. recomputes the local summary of every updated node and marks the node
   dirty if the summary actually changed,
3. runs one change-driven convergecast per query, in which an activated
   node merges its cached children summaries with its own and retransmits
   only when the result differs from what it last sent by more than the
   ε-slack (transmissions are charged at *delta* cost against the parent's
   cached copy), and
4. reads the answers off the root's merged summary and appends an
   :class:`~repro.streaming.trace.EpochRecord` to the trace.

The suppression rule allocates each node an absolute slack of
``ε · scale / n``, where ``scale`` is the *largest* answer magnitude seen so
far (a high-water mark: a node that suppressed long ago may still be stale,
so the budget must cover the scale at which it suppressed).  At most ``n``
nodes can be stale at once and each holds back a change of distance at most
its slack, so the root answer is within ``ε · scale`` of the unsuppressed
answer at every epoch — the same additive guarantee whether the stream
drifts, bursts or churns.  Steady-state communication is therefore
proportional to *change*: an epoch in which nothing moves costs zero bits.

Each query runs on one of two kernels (:mod:`repro.streaming.kernels`),
picked at registration from the query and the field, never from a user
option: the per-node ``decide`` fold, which serves any summary, or the
whole-array column sweep, which serves count-valued summaries on
perfect-link fields.  Both charge the same bits.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.network.energy import EnergyModel
from repro.network.radio import ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.protocols.broadcast import broadcast
from repro.streaming.kernels import FoldKernel, SweepKernel
from repro.streaming.queries import REGISTRATION_BITS, StandingQuery
from repro.streaming.summaries import CountSummary, StreamSummary
from repro.streaming.trace import EpochRecord, StreamingTrace, build_epoch_record


class ContinuousQueryEngine:
    """Serve standing aggregate queries over a time-evolving sensor network.

    ``shards`` / ``shard_processes`` size the worker pool of an
    ``execution="sharded"`` network's column sweeps (``shard_processes=0``
    runs the shards inline); :meth:`close` shuts that pool down.
    """

    protocol_prefix = "stream"

    def __init__(
        self,
        network: SensorNetwork,
        epsilon: float = 0.1,
        energy_model: EnergyModel | None = None,
        *,
        shards: int = 4,
        shard_processes: int | None = None,
    ) -> None:
        if epsilon < 0:
            raise ConfigurationError(f"epsilon must be non-negative, got {epsilon}")
        self.network = network
        self.epsilon = epsilon
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.trace = StreamingTrace()
        self._queries: dict[str, FoldKernel | SweepKernel] = {}
        self._answers: dict[str, Any] = {}
        self._pending_dirty: set[int] = set()
        #: Last epoch's "anything transmitting?" truth, for the
        #: ``suppression.flip`` flight event (``None`` before any epoch).
        self._suppression_state: bool | None = None
        self._shards = shards
        self._shard_processes = shard_processes
        #: The sharded sweeps' worker pool and the tree its plan was cut from.
        self._runner = None
        self._runner_tree = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, query: StandingQuery, announce: bool = True) -> None:
        """Register a standing query under ``name``.

        The root announces the query down the tree once (a constant-size
        description, charged like the one-shot protocols' request broadcast);
        from then on the query is answered every epoch until the engine is
        discarded.  Queries registered after epochs have already run are
        bootstrapped on the next epoch by treating every node as dirty.
        """
        if name in self._queries:
            raise ConfigurationError(f"query {name!r} is already registered")
        self._queries[name] = self._kernel_for(query)
        if announce:
            broadcast(
                self.network,
                {"register": name, "kind": query.kind},
                REGISTRATION_BITS,
                protocol=f"{self.protocol_prefix}:{name}:register",
            )

    def _kernel_for(self, query: StandingQuery) -> FoldKernel | SweepKernel:
        """The column sweep for a count-valued query on a perfect-link field
        (or on a sharded one); the ``decide`` fold for the rest.

        Perfect links and no per-node budget are what let the sweep charge a
        whole epoch in one batch; a radio swapped in later still charges
        exactly, one level at a time.
        """
        network = self.network
        sharded = network.execution == "sharded"
        if isinstance(query.local_summary([]), CountSummary) and (
            sharded
            or (
                network.execution != "per-edge"
                and type(network.radio) is ReliableRadio
                and network.ledger.per_node_budget_bits is None
            )
        ):
            return SweepKernel(network, query, self._shard_runner if sharded else None)
        return FoldKernel(network, query)

    def queries(self) -> dict[str, StandingQuery]:
        """The registered queries by name."""
        return {name: kernel.query for name, kernel in self._queries.items()}

    def answers(self) -> dict[str, Any]:
        """The most recent per-query answers (empty before the first epoch)."""
        return dict(self._answers)

    def root_summary(self, name: str) -> StreamSummary | None:
        """The root's merged subtree summary for one registered query.

        ``None`` until something has reached the root.  This is the
        shared-plan hook the tenancy layer derives per-tenant answers
        from (:mod:`repro.tenancy`): answer parameters excluded from the
        plan signature — a quantile's fraction — are applied to this one
        summary at the root instead of costing extra convergecasts.
        """
        try:
            kernel = self._queries[name]
        except KeyError:
            raise ConfigurationError(f"unknown query {name!r}") from None
        return kernel.root_summary()

    @property
    def epoch(self) -> int:
        """Number of epochs advanced so far."""
        return len(self.trace)

    def close(self) -> None:
        """Shut down the sharded sweeps' worker pool, if one was started."""
        if self._runner is not None:
            self._runner.close()
        self._runner = self._runner_tree = None

    def _shard_runner(self):
        """The worker pool for the current tree (shard plans are per-tree);
        ``None`` when nothing hangs below the root."""
        flat = self.network.flat_tree
        if self._runner_tree is not flat:
            from repro.network.sharding import ShardRunner, build_shard_plan

            self.close()
            plan = build_shard_plan(flat, self._shards)
            if plan is not None:
                self._runner = ShardRunner(plan, processes=self._shard_processes)
            self._runner_tree = flat
        return self._runner

    # ------------------------------------------------------------------ #
    # Fault recovery
    # ------------------------------------------------------------------ #
    def apply_root_change(self, election) -> None:
        """Migrate the summary caches after a root fail-over.

        ``election`` is an :class:`~repro.faults.ElectionResult` (duck-typed,
        like :meth:`apply_repair`'s argument) describing a charged handover:
        the old root died, the highest surviving id won, and the tree was
        re-rooted by reversing the parent pointers along
        ``election.reversed_path``.  Instead of cold-resyncing the field,
        the caches *migrate* along that reversed path only:

        * the old root's per-query state is dropped (its caches died with
          it);
        * every node on the path evicts the cached summary of its former
          child that is now its parent (a subtree summary must never count
          its new ancestors), forgets what it last transmitted (its new
          parent caches nothing for it) and is marked dirty — its next
          transmission is one full subtree summary, after which deltas
          resume;
        * every node *off* the path keeps its caches and stays silent: its
          subtree, and therefore everything it ever transmitted, is
          unchanged by the handover.

        Fragments that were not the winner's re-attach through the ordinary
        repair recovery (:meth:`apply_repair`, called with the seeded
        repair's result right after this).  Idempotent and safe to call
        before or after :meth:`apply_repair` for the same epoch.
        """
        if election is None:
            return
        dirty: set[int] = set()
        for kernel in self._queries.values():
            kernel.root_change(election, dirty)
        # The winner must re-read its subtree even if nothing else changed,
        # so the standing answers move to the new root this epoch.
        dirty.add(election.new_root)
        self._pending_dirty |= dirty
        self._record_root_change_evictions(tuple(election.reversed_path))

    def apply_repair(self, result) -> None:
        """Re-synchronise the summary caches after a spanning-tree repair.

        ``result`` is a :class:`~repro.faults.RepairResult` (duck-typed, so
        the streaming layer does not import the faults package); the batched
        and per-edge repair implementations produce identical results, so
        recovery is oblivious to which one ran.  The recovery protocol
        re-transmits only along repaired paths:

        * nodes whose parent changed forget what they last transmitted (the
          new parent caches nothing for them) and are marked dirty — their
          next transmission is one full subtree summary, after which deltas
          resume;
        * parents that lost a child evict that child's cached summary and
          are marked dirty, so the loss propagates up as deltas;
        * crashed / cut-off nodes are dropped from the per-query state;
          every *other* node's caches remain valid and it stays silent.

        Only a full rebuild (``result.rebuilt``) resets every cache — that
        is exactly the recompute cost the incremental path avoids, and what
        the fault benchmarks measure.
        """
        if result is None or not getattr(result, "changed_anything", True):
            return
        flat = self.network.flat_tree
        if result.rebuilt:
            for kernel in self._queries.values():
                kernel.reset()
            self._pending_dirty = set(flat.node_ids)
        else:
            dirty: set[int] = set()
            for kernel in self._queries.values():
                kernel.repair(result, dirty)
            self._pending_dirty |= dirty & flat.index.keys()
        self._record_evictions(result)

    def _record_evictions(self, result) -> None:
        """Flight events for the cache evictions a repair just caused.

        Called once per recovery (the evictions are identical for every
        registered query).  A rebuild resets every cache, so it emits one
        aggregated event; the incremental path emits one per evicted
        ``(parent, child)`` cache pair.
        """
        telemetry = self.network.telemetry
        if not telemetry.enabled:
            return
        if getattr(result, "rebuilt", False):
            telemetry.event(
                "cache.evict",
                count=self.network.flat_tree.num_nodes,
                site="rebuild-reset",
            )
            return
        for parent, child in result.child_losses:
            telemetry.event(
                "cache.evict", node=parent, child=child, site="repair"
            )

    def _record_root_change_evictions(self, path) -> None:
        """Flight events for the cache migration along a re-rooted path."""
        telemetry = self.network.telemetry
        if not telemetry.enabled:
            return
        for previous, member in zip(path, path[1:]):
            telemetry.event(
                "cache.evict", node=member, child=previous, site="root-change"
            )

    # ------------------------------------------------------------------ #
    # Epoch execution
    # ------------------------------------------------------------------ #
    def advance_epoch(
        self, updates: Mapping[int, Sequence[int]] | None = None
    ) -> EpochRecord:
        """Apply one epoch of reading updates and refresh every query's answer.

        ``updates`` maps node id → its new item list (an empty list takes the
        node offline).  Nodes not listed keep their readings.  Returns the
        epoch's :class:`~repro.streaming.trace.EpochRecord` (also appended to
        :attr:`trace`).
        """
        if not self._queries:
            raise ConfigurationError(
                "no standing queries registered; call register() first"
            )
        updates = {node_id: list(items) for node_id, items in (updates or {}).items()}
        # Totals-only diff: build_epoch_record never reads per-node bits, so
        # a steady-state epoch stays O(touched), not O(network size).
        before = self.network.ledger.counters_snapshot()
        self.network.assign_items(updates)

        # Nodes marked dirty by a tree repair (see apply_repair) join this
        # epoch's traversal for every query, then the backlog is cleared.
        pending = self._pending_dirty
        self._pending_dirty = set()
        in_tree = self.network.flat_tree.index.keys()
        total_dirty: set[int] = set()
        stats_total = {"transmissions": 0, "suppressions": 0}
        telemetry = self.network.telemetry
        stream_span = telemetry.span("stream", epoch=len(self.trace))
        with stream_span:
            for name, kernel in self._queries.items():
                dirty = kernel.refresh(updates)
                dirty |= pending
                dirty &= in_tree
                total_dirty |= dirty
                with telemetry.span("convergecast", query=name):
                    stats = kernel.run(
                        dirty, self._slack(kernel), f"{self.protocol_prefix}:{name}"
                    )
                stats_total["transmissions"] += stats.transmissions
                stats_total["suppressions"] += stats.suppressions
                self._read_answer(name, kernel)
            if telemetry.enabled:
                stream_span.annotate(
                    dirty_nodes=len(total_dirty),
                    transmissions=stats_total["transmissions"],
                    suppressions=stats_total["suppressions"],
                )
                transmitting = stats_total["transmissions"] > 0
                if (
                    self._suppression_state is not None
                    and transmitting != self._suppression_state
                ):
                    telemetry.event(
                        "suppression.flip",
                        direction="transmitting" if transmitting else "quiet",
                        transmissions=stats_total["transmissions"],
                        suppressions=stats_total["suppressions"],
                    )
                self._suppression_state = transmitting

        after = self.network.ledger.counters_snapshot()
        record = build_epoch_record(
            epoch=len(self.trace),
            answers=self._answers,
            before=before,
            after=after,
            num_nodes=self.network.num_nodes,
            energy_model=self.energy_model,
            dirty_nodes=len(total_dirty),
            transmissions=stats_total["transmissions"],
            suppressions=stats_total["suppressions"],
            query_names=list(self._queries),
            protocol_prefix=self.protocol_prefix,
        )
        self.trace.append(record)
        return record

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _slack(self, kernel: FoldKernel | SweepKernel) -> float:
        return self.epsilon * kernel.scale / max(1, self.network.num_nodes)

    def _read_answer(self, name: str, kernel: FoldKernel | SweepKernel) -> None:
        summary = kernel.root_summary()
        if summary is None:
            return  # nothing has ever reached the root for this query
        self._answers[name] = kernel.query.answer(summary)
        # High-water mark: suppressed residue from an epoch with a larger
        # answer persists until those nodes re-activate, so both the slack and
        # the reported bound must keep covering the largest scale seen.
        kernel.scale = max(kernel.scale, kernel.query.scale(summary))

    def error_bounds(self) -> dict[str, float]:
        """Per-query absolute answer-error guarantees.

        Bounds are relative to the largest answer magnitude seen so far, not
        the instantaneous one — see the class docstring.
        """
        return {
            name: kernel.query.error_bound(self.epsilon, kernel.scale)
            for name, kernel in self._queries.items()
        }


def run_stream(
    engine: "ContinuousQueryEngine",
    stream,
    epochs: int,
) -> StreamingTrace:
    """Drive ``engine`` through ``epochs`` epochs of a stream workload.

    Epoch 0 applies the stream's initial assignment; later epochs apply its
    per-epoch updates.  Works with any engine exposing ``advance_epoch``
    (including :class:`~repro.streaming.recompute.RecomputeEngine`), so the
    incremental/naive comparison drives both through identical inputs.
    """
    if epochs <= 0:
        raise ConfigurationError(f"epochs must be positive, got {epochs}")
    engine.advance_epoch(stream.initial())
    for epoch in range(1, epochs):
        engine.advance_epoch(stream.step(epoch))
    return engine.trace


#: The engine, under the name ``benchmarks/perf`` imports; each query's
#: kernel no longer depends on which name built the engine.
engine_for = ContinuousQueryEngine
