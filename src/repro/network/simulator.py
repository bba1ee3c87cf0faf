"""The sensor-network simulator.

:class:`SensorNetwork` ties together a topology, the sensor nodes with their
input items, a rooted spanning tree, a radio model and the communication
ledger.  Protocols interact with the network exclusively through

* :meth:`send` — transmit a payload of an explicitly declared size over a
  graph edge (charged to the ledger, filtered through the radio model),
* the batched primitive :meth:`send_batch` — plan a whole wave of
  synchronous-round transmissions and charge them in one ledger call, and
* the item columns (:attr:`SensorNetwork.item_columns`) — read for *local*
  computation only.

The network is the one owner of node state: every node's items as int64
columns, written only by ``from_items``, ``assign_items``, ``clear_items``
and ``kill_node``; :meth:`SensorNetwork.node` returns a frozen view.

This mirrors the paper's model (Section 2.1): the root can only initiate
protocols and read back results; all costs are incurred edge by edge.  The
two charging paths are bit-for-bit equivalent — the batched primitive exists
purely so the simulator scales to 100k-node fields; see
:attr:`SensorNetwork.execution` for how protocols pick a path.

Nodes can crash and recover: the network carries an *alive-mask*
(:meth:`SensorNetwork.kill_node` / :meth:`SensorNetwork.revive_node`)
honoured identically by both charging paths — any transmission touching a
dead node raises :class:`~repro.exceptions.DeadNodeError`.  The
fault-tolerance engine (:mod:`repro.faults`) drives the mask and keeps the
spanning tree spanning the alive, root-connected population.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro._util.validation import require_non_negative
from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    DeadNodeError,
    DeliveryError,
    EmptyNetworkError,
    TopologyError,
)
from repro.network.accounting import (
    SMALL_BATCH,
    CommunicationLedger,
    LedgerSnapshot,
    link_pairs,
    require_size,
    require_sizes,
)
from repro.network.flat_tree import FlatTree
from repro.network.links import LinkTable, as_link_table
from repro.network.message import Message
from repro.network.node import INT64_MAX, ItemColumns, SensorNode, run_slots
from repro.network.radio import RadioModel, ReliableRadio
from repro.network.spanning_tree import SpanningTree, build_tree
from repro.network.topology import build_links
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder, as_recorder

if TYPE_CHECKING:
    from networkx import Graph

#: Valid values of :attr:`SensorNetwork.execution`.
#:
#: ``"batched"`` and ``"per-edge"`` select the charging path of the tree
#: protocols.  ``"sharded"`` additionally fans the streaming engine's
#: count-query column sweeps out to subtree-sharded worker processes;
#: ``"vectorized"`` is a spelling of ``"batched"``, kept only for
#: ``benchmarks/perf``.  Every other protocol treats both exactly like
#: ``"batched"``, so every mode stays bit-for-bit ledger-identical.  Every mode meters on the one
#: :class:`~repro.network.CommunicationLedger`; a network built without an
#: explicit ``ledger=`` sizes it to its highest id plus one.
EXECUTION_MODES = ("batched", "per-edge", "vectorized", "sharded")


class SensorNetwork:
    """A simulated sensor network holding integer items at each node."""

    def __init__(
        self,
        graph: LinkTable | Graph,
        root: int = 0,
        radio: RadioModel | None = None,
        degree_bound: int | None = 3,
        ledger: CommunicationLedger | None = None,
        execution: str = "batched",
        telemetry: TelemetryRecorder | None = None,
    ) -> None:
        # The network owns its link table from here on: an ``nx.Graph`` is
        # converted once, a LinkTable is adopted (do not share one between
        # networks — links change through drop_link / restore_link).
        links = as_link_table(graph)
        if root not in links:
            raise TopologyError(f"root {root} is not a node of the graph")
        self._links = links
        self._graph_view: Graph | None = None
        self.root_id = root
        self.radio = radio if radio is not None else ReliableRadio()
        self.execution = execution
        self._sorted_ids: list[int] = links.node_ids()
        dense_ids = links.dense
        if not dense_ids:
            for node_id in self._sorted_ids:
                require_non_negative(node_id, "node_id")
        num_nodes = len(self._sorted_ids)
        # Row r holds _item_count[r] items from _item_values[_item_start[r]].
        # A write that grows a row moves it to fresh slots at the end;
        # item_columns packs the rows back into CSR order (_item_ptr).
        self._install(np.zeros(num_nodes, dtype=np.int64), np.zeros(0, dtype=np.int64))
        self._dead: set[int] = set()
        #: ``_dead`` as a boolean array indexed by node id, for whole-array
        #: endpoint checks (treat as read-only); ``None`` when the ids are
        #: not ``0..n-1``.
        self.alive_mask = np.ones(num_nodes, dtype=bool) if dense_ids else None
        if ledger is None:
            # A sparse id indexes its own row: O(max id) memory, which the
            # small sparse fields simulated here can afford.
            ledger = CommunicationLedger(self._sorted_ids[-1] + 1)
        self.ledger = ledger
        self._telemetry: TelemetryRecorder = NULL_RECORDER
        self.telemetry = telemetry
        self._tree_view: SpanningTree | None = None
        self.degree_bound = degree_bound
        # A spanning tree of the links is the connectivity check: it must
        # reach every node.
        self.rebuild_tree()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_items(
        cls,
        items: Sequence[int],
        topology: str | LinkTable | Graph = "grid",
        root: int = 0,
        radio: RadioModel | None = None,
        degree_bound: int | None = 3,
        seed: int | None = 0,
        execution: str = "batched",
        telemetry: TelemetryRecorder | None = None,
    ) -> "SensorNetwork":
        """Build a network with one item per node.

        ``topology`` is either a prebuilt link table or graph with exactly
        ``len(items)`` nodes or the name of a generator from
        :mod:`repro.network.topology` (built straight into a link table).
        """
        if len(items) == 0:
            raise EmptyNetworkError("cannot build a network from zero items")
        values = np.array(_checked_items(items), dtype=np.int64)
        if isinstance(topology, str):
            links = build_links(topology, len(items), seed=seed)
        else:
            links = as_link_table(topology)
        if links.num_nodes < len(items):
            raise ConfigurationError(
                f"topology has {links.num_nodes} nodes but "
                f"{len(items)} items were supplied"
            )
        network = cls(
            links,
            root=root,
            radio=radio,
            degree_bound=degree_bound,
            execution=execution,
            telemetry=telemetry,
        )
        # One item per row, in id order; rows past the items hold none.
        rows = np.arange(network.num_nodes)
        network._install((rows < values.size).astype(np.int64), values)
        return network

    @property
    def telemetry(self) -> TelemetryRecorder:
        """The recorder behind every profiling hook on this network.

        Defaults to the shared
        :data:`~repro.telemetry.NULL_RECORDER`, whose hooks are no-ops and
        never charge the ledger; install a
        :class:`~repro.telemetry.SpanTracer` (or assign ``None`` to switch
        back off) to light up the spans and counters across the whole
        pipeline.  Installing a recorder binds this network's ledger to it,
        so its spans meter the right counters.
        """
        return self._telemetry

    @telemetry.setter
    def telemetry(self, recorder: TelemetryRecorder | None) -> None:
        recorder = as_recorder(recorder)
        recorder.bind_ledger(self.ledger)
        self._telemetry = recorder

    @property
    def execution(self) -> str:
        """Which execution path protocols use — one of :data:`EXECUTION_MODES`.

        ``"batched"`` (default) charges whole sweeps at once; ``"per-edge"``
        is the simple reference implementation.  ``"sharded"`` fans the
        streaming engine's column sweeps out to subtree-sharded worker
        processes, and ``"vectorized"`` is a spelling of ``"batched"``;
        every other protocol treats both like ``"batched"``.  Every mode
        produces bit-for-bit identical ledgers (enforced by
        ``tests/test_oracle.py``).  The mode given at construction also
        picks the default ledger class (see :data:`EXECUTION_MODES`);
        assigning it later does not swap the ledger.
        """
        return self._execution

    @execution.setter
    def execution(self, mode: str) -> None:
        if mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"unknown execution mode {mode!r}; known: {EXECUTION_MODES}"
            )
        self._execution = mode

    @property
    def deferrable(self) -> bool:
        """Whether a send between alive nodes here can neither fail, lose a
        copy nor stop at a budget: ids ``0..n-1``, ``type(radio) is
        ReliableRadio`` and no per-node budget.  Such a send's charge only
        has to reach the ledger before anything reads it, not at its place
        in the order of sends."""
        return (
            self.alive_mask is not None
            and type(self.radio) is ReliableRadio
            and self.ledger.per_node_budget_bits is None
        )

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #
    @property
    def links(self) -> LinkTable:
        """The link table: the one owner of link state (treat as read-only;
        change links through :meth:`drop_link` / :meth:`restore_link`)."""
        return self._links

    @property
    def graph(self) -> Graph:
        """A frozen ``nx.Graph`` of the alive links, for readers that want one.

        Built on first access (importing networkx) and rebuilt after a link
        change; mutating it raises.  Nothing on a repair, election or epoch
        path reads it — they read :attr:`links`.
        """
        if self._graph_view is None:
            import networkx as nx

            self._graph_view = nx.freeze(self._links.to_networkx())
        return self._graph_view

    def drop_link(self, u: int, v: int) -> None:
        """Take the alive link ``(u, v)`` down.

        With :meth:`restore_link` the only way to change a link, so a cut
        tree edge is always on record in ``links.dropped`` — which is what
        the repair reads instead of probing every tree edge.  The spanning
        tree is *not* patched here; that is
        :class:`~repro.faults.TreeRepair`'s (charged) job.  Raises
        :class:`~repro.exceptions.TopologyError` unless the link is up.
        """
        self._links.drop(u, v)
        self._graph_view = None

    def restore_link(self, u: int, v: int) -> None:
        """Bring the dropped link ``(u, v)`` back (raises unless it is down)."""
        self._links.restore(u, v)
        self._graph_view = None

    def rebuild_tree(self) -> FlatTree:
        """Rebuild and install the spanning tree under :attr:`degree_bound`;
        returns the new :attr:`flat_tree`."""
        self.set_tree(build_tree(self._links, self.root_id, self.degree_bound))
        return self._flat_tree

    # ------------------------------------------------------------------ #
    # Node / item access
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self._sorted_ids)

    @property
    def root(self) -> SensorNode:
        """A frozen view of the root."""
        return self.node(self.root_id)

    @property
    def flat_tree(self) -> FlatTree:
        """The spanning tree: the one owner of tree state (treat as
        read-only; a tree change installs a new one via :meth:`set_tree`)."""
        return self._flat_tree

    # Kept only for benchmarks/perf/layers.py; collapse step 1 deletes it.
    @property
    def tree(self) -> SpanningTree:
        """A frozen :class:`SpanningTree` view of :attr:`flat_tree`.

        Built on first access and dropped by :meth:`set_tree`; mutating it
        raises.  No path of the library reads it.
        """
        if self._tree_view is None:
            self._tree_view = SpanningTree.from_flat(self._flat_tree)
        return self._tree_view

    def set_tree(self, flat_tree: FlatTree) -> None:
        """Install ``flat_tree``: the one install point, so every tree
        change — a build, a repair's :meth:`FlatTree.rewire`, a rebuild —
        drops the stale :attr:`tree` view.  Raises
        :class:`~repro.exceptions.ConfigurationError` unless it is a
        :class:`FlatTree` rooted at :attr:`root_id`."""
        if not isinstance(flat_tree, FlatTree) or flat_tree.root_id != self.root_id:
            raise ConfigurationError(
                f"set_tree takes a FlatTree rooted at {self.root_id}, got "
                f"{flat_tree!r}"
            )
        self._flat_tree = flat_tree
        self._tree_view = None

    @property
    def tree_rows(self):
        """The link-table row of every :attr:`flat_tree` position (int64):
        where a sweep over the tree reads each node's item columns."""
        return self._links.rows_of(self._flat_tree.ids_array)

    @property
    def item_columns(self) -> ItemColumns:
        """Every node's items as CSR int64 columns in link-table row order
        (treat as read-only; change items through :meth:`assign_items`)."""
        if self._item_ptr is None:
            self._pack()
        return ItemColumns(self._item_ptr, self._item_values)

    def _install(self, counts, values) -> None:
        """Adopt packed columns: ``counts[r]`` items per row, in row order."""
        self._item_ptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._item_ptr[1:])
        self._item_start = self._item_ptr[:-1].copy()
        self._item_count = counts
        self._item_values = values

    def _pack(self) -> None:
        """Gather every row's items back into row order (one array pass)."""
        counts = self._item_count
        self._install(counts, self._item_values[run_slots(self._item_start, counts)])

    def _row(self, node_id: int) -> int:
        row = self._links.row_of(node_id)
        if row < 0:
            raise ConfigurationError(f"unknown node id {node_id}")
        return row

    def node(self, node_id: int) -> SensorNode:
        """A frozen view of ``node_id`` as it is now (raises on an unknown id)."""
        node_id = self._sorted_ids[self._row(node_id)]
        return SensorNode(node_id, tuple(self.items_of(node_id)), node_id == self.root_id)

    def nodes(self) -> Iterator[SensorNode]:
        """Frozen views of every node, in id order."""
        return map(self.node, self._sorted_ids)

    def node_ids(self) -> list[int]:
        """Node ids in ascending order (copied from a cache, never re-sorted)."""
        return list(self._sorted_ids)

    def items_of(self, node_id: int) -> list[int]:
        """The items of ``node_id``, in the order they were assigned."""
        row = self._row(node_id)
        start = int(self._item_start[row])
        return self._item_values[start : start + int(self._item_count[row])].tolist()

    def assign_items(self, per_node_items: Mapping[int, Iterable[int]]) -> None:
        """Replace the items of the listed nodes (others keep theirs).

        All or nothing: every id must be known and every item a
        non-negative integer below 2**63, or
        :class:`~repro.exceptions.ConfigurationError` is raised before
        anything is written.  Updates that keep each node's item count
        (one reading per node) are written in place.
        """
        batch = self._checked_batch(per_node_items)
        if batch is None:
            # The ordered loop owns the errors: it raises at the first bad
            # entry, before anything is written.
            rows: list[int] = []
            new: list[list[int]] = []
            for node_id, values in per_node_items.items():
                rows.append(self._row(node_id))
                new.append(_checked_items(values))
            counts = np.fromiter(map(len, new), dtype=np.int64, count=len(new))
            batch = (
                np.asarray(rows, dtype=np.int64),
                counts,
                np.fromiter(chain.from_iterable(new), dtype=np.int64, count=int(counts.sum())),
            )
        self._write_items(*batch)

    def _checked_batch(self, per_node_items: Mapping[int, Iterable[int]]):
        """The batch as ``(rows, counts, values)`` int64 columns when one
        array pass finds every id known and every item valid; ``None`` sends
        it down the ordered loop.

        Ids and items must be exact ``int`` and the item lists lists or
        tuples (an iterator would be spent by a check that then fails);
        anything else, like any failing batch, is left to the loop.
        """
        lists = list(per_node_items.values())
        if not set(map(type, lists)) <= {list, tuple}:
            return None
        items = list(chain.from_iterable(lists))
        if not (set(map(type, per_node_items)) | set(map(type, items))) <= {int}:
            return None
        try:
            ids = np.array(list(per_node_items), dtype=np.int64)
            values = np.array(items, dtype=np.int64)
        except OverflowError:
            return None
        if values.size and values.min() < 0:
            return None
        links = self._links
        rows = links.rows_of(ids)
        if rows.size and not (
            rows.min() >= 0
            and rows.max() < links.num_nodes
            and np.array_equal(links.ids_of(rows), ids)
        ):
            return None
        return rows, np.fromiter(map(len, lists), dtype=np.int64, count=len(lists)), values

    def _write_items(self, rows, counts, values) -> None:
        """Replace the items of distinct ``rows`` with ``counts[i]`` checked
        ``values`` each: in place when a row keeps its count or shrinks,
        O(update)."""
        old = self._item_count[rows]
        if not np.array_equal(counts, old):
            grown = counts > old
            if grown.any():
                live = int(self._item_count.sum())
                if self._item_values.size > 2 * (live + self.num_nodes):
                    self._pack()  # bound the dead slots by the live ones
                # No room in place: grown rows move to fresh slots at the end.
                extra = counts[grown]
                ends = self._item_values.size + np.cumsum(extra)
                self._item_start[rows[grown]] = ends - extra
                self._item_values = np.concatenate(
                    (self._item_values, np.zeros(int(extra.sum()), dtype=np.int64))
                )
            self._item_count[rows] = counts
            self._item_ptr = None
        self._item_values[run_slots(self._item_start[rows], counts)] = values

    def clear_items(self) -> None:
        """Remove every item from every node."""
        self._install(np.zeros_like(self._item_count), np.zeros(0, dtype=np.int64))

    def all_items(self) -> list[int]:
        """Ground-truth multiset of all items, for verification only.

        Protocols must never call this — it bypasses the communication model.
        The test-suite and the experiment harness use it to check protocol
        outputs against the true answer.
        """
        return self.item_columns.values.tolist()

    def total_items(self) -> int:
        """Ground-truth value of N = |X| (verification only)."""
        return int(self._item_count.sum())

    def max_item(self) -> int:
        """Ground-truth max(X) (verification only)."""
        values = self.item_columns.values
        if not values.size:
            raise EmptyNetworkError("network holds no items")
        return int(values.max())

    # ------------------------------------------------------------------ #
    # Liveness (the alive-mask consumed by the fault-tolerance engine)
    # ------------------------------------------------------------------ #
    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently alive (crashed nodes are not)."""
        return node_id not in self._dead

    def kill_node(self, node_id: int, allow_root: bool = False) -> None:
        """Crash ``node_id``: it loses its readings and can neither send nor
        receive until revived.

        Killing the root requires ``allow_root=True`` — it is the node wired
        to the user entity, so its death leaves the network without an
        observer until a :class:`~repro.faults.RootElection` promotes a
        successor; the guard keeps accidental direct kills loud while the
        fault engine's :class:`~repro.faults.RootCrash` event opts in
        explicitly.  Killing an already-dead node is a no-op.  The spanning
        tree is *not* patched here; that is
        :class:`~repro.faults.TreeRepair`'s job, so repair cost is charged
        explicitly rather than hidden in a setter.
        """
        if node_id == self.root_id and not allow_root:
            raise ConfigurationError(
                "the root cannot crash outside a scripted RootCrash; pass "
                "allow_root=True (or schedule repro.faults.RootCrash) to "
                "model root fail-over"
            )
        row = self._row(node_id)
        self._dead.add(node_id)
        if self.alive_mask is not None:
            self.alive_mask[node_id] = False
        if self._item_count[row]:
            self._item_count[row] = 0  # its slots go dead until the next pack
            self._item_ptr = None

    def set_root(self, node_id: int) -> None:
        """Re-root the network's *identity* at ``node_id`` (must be alive).

        Updates :attr:`root_id` only — the spanning tree is left untouched,
        because re-rooting the tree is a charged operation
        (:class:`~repro.faults.RootElection` decides and bills it,
        :class:`~repro.faults.TreeRepair` installs the re-rooted tree).
        Callers flipping the root outside that pipeline must install a tree
        rooted at ``node_id`` themselves before running protocols.
        """
        if node_id in self._dead:
            raise ConfigurationError(
                f"cannot root the network at dead node {node_id}"
            )
        self._row(node_id)
        self.root_id = node_id

    def revive_node(self, node_id: int) -> None:
        """Bring a crashed node back (with no items; rejoin supplies fresh ones)."""
        self._row(node_id)
        self._dead.discard(node_id)
        if self.alive_mask is not None:
            self.alive_mask[node_id] = True

    def alive_node_ids(self) -> list[int]:
        """Ids of currently-alive nodes, in ascending order."""
        if not self._dead:
            return list(self._sorted_ids)
        dead = self._dead
        return [node_id for node_id in self._sorted_ids if node_id not in dead]

    def dead_node_ids(self) -> list[int]:
        """Ids of currently-crashed nodes, in ascending order."""
        return sorted(self._dead)

    @property
    def num_alive(self) -> int:
        return len(self._sorted_ids) - len(self._dead)

    def attached_node_ids(self) -> list[int]:
        """Nodes the current spanning tree spans (alive and root-connected)."""
        return sorted(self._flat_tree.node_ids)

    def attached_items(self) -> list[int]:
        """Ground-truth multiset over tree-attached nodes (verification only).

        Under faults this — not :meth:`all_items` — is the answerable truth:
        readings at crashed or cut-off nodes cannot reach the root under any
        protocol, so answer accuracy is measured against the attached
        population.
        """
        attached = np.zeros(self.num_nodes, dtype=bool)
        attached[self.tree_rows] = True
        columns = self.item_columns
        return columns.values[np.repeat(attached, columns.lengths)].tolist()

    # ------------------------------------------------------------------ #
    # Communication
    # ------------------------------------------------------------------ #
    def send(
        self,
        sender: int,
        receiver: int,
        payload: object,
        size_bits: int,
        protocol: str = "unknown",
        require_edge: bool = True,
    ) -> Message:
        """Transmit ``payload`` from ``sender`` to ``receiver``.

        The transmission is filtered through the radio model (which may retry
        or duplicate it); every attempt is charged to the ledger.  The
        delivered :class:`Message` is returned so the caller can hand it to the
        receiving node's logic.
        """
        size_bits = require_size(size_bits)
        if sender not in self._links or receiver not in self._links:
            raise ConfigurationError(
                f"send between unknown nodes {sender} -> {receiver}"
            )
        if sender in self._dead or receiver in self._dead:
            raise DeadNodeError(
                f"send between dead nodes {sender} -> {receiver}; repair the "
                "tree before running protocols over a faulted network"
            )
        if require_edge and not self._links.has(sender, receiver):
            raise TopologyError(
                f"nodes {sender} and {receiver} are not neighbours; "
                "multi-hop delivery must be routed explicitly"
            )
        attempts, copies = self._deliver([(sender, receiver)], [size_bits], protocol)
        charged = int(attempts[0])
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.count("net.sends", 1, protocol=protocol)
            telemetry.count("net.messages", charged, protocol=protocol)
            telemetry.count("net.bits", size_bits * charged, protocol=protocol)
        return Message(
            sender=sender,
            receiver=receiver,
            payload=payload,
            size_bits=size_bits,
            protocol=protocol,
            metadata={"copies_delivered": int(copies[0])},
        )

    # ------------------------------------------------------------------ #
    # Batched communication
    # ------------------------------------------------------------------ #
    def send_batch(
        self,
        links: Sequence[tuple[int, int]],
        sizes: Sequence[int],
        protocol: str = "unknown",
        require_edge: bool = True,
    ) -> list[int]:
        """Transmit one logical message per ``(sender, receiver)`` link.

        The batched counterpart of :meth:`send`, through the same
        draw-then-charge step: the radio draws every link's send (its draws
        depend on the link and its send count, not on the link's place in
        the batch) and the ledger is charged in one call, so the resulting
        ledger is bit-for-bit identical to one :meth:`send` per link.
        Payload objects are not simulated here — batched callers hand
        payloads to receivers themselves — so the return value is the
        ``copies_delivered`` count per link.

        ``links`` may also be a ``(k, 2)`` int64 array with ``sizes`` an
        int64 array (what the vectorized paths already hold); the copies
        then come back as an int64 array.  Same checks, same charges.  Sizes
        follow :meth:`send`'s rule (exact non-negative integers below 2**63)
        and are checked first.  On ids ``0..n-1``, a link array or a tuple
        list of more than :data:`~repro.network.accounting.SMALL_BATCH`
        links is checked in one array pass (exact integer ids, known, alive,
        and a link when ``require_edge``) and drawn and charged as arrays.
        Anything else — a failing batch, a smaller tuple list, sparse ids —
        takes the ordered per-link check, which raises :meth:`send`'s error
        at the first bad link before anything is drawn or charged.  A
        permanent loss charges the links before it and raises
        :class:`~repro.exceptions.DeliveryError` with its ``index``; a
        per-node budget is enforced by the ledger at the per-edge raise
        point, and the radio takes back the sends drawn after it, so a
        seeded radio's send counts are those of one :meth:`send` per link.
        """
        telemetry = self._telemetry
        if not telemetry.enabled:
            return self._send_batch_impl(links, sizes, protocol, require_edge)
        # Profiling hook: meter the batch off the ledger itself (exact even
        # on the partial-charge failure path) instead of re-deriving sizes.
        ledger = self.ledger
        bits_before = ledger.total_bits
        messages_before = ledger.total_messages
        try:
            return self._send_batch_impl(links, sizes, protocol, require_edge)
        finally:
            telemetry.count("net.batches", 1, protocol=protocol)
            telemetry.count("net.links", len(links), protocol=protocol)
            telemetry.count(
                "net.messages",
                ledger.total_messages - messages_before,
                protocol=protocol,
            )
            telemetry.count(
                "net.bits", ledger.total_bits - bits_before, protocol=protocol
            )

    def charge_totals(self, links, bits, messages, protocol: str = "unknown") -> None:
        """Charge several perfect-link sweeps over the ``(k, 2)`` int64
        ``links`` at once: link ``i`` carried ``bits[i]`` bits over
        ``messages[i]`` sends in all.

        Only a :attr:`deferrable` network whose ``links`` join alive nodes
        takes it (anything else raises
        :class:`~repro.exceptions.ConfigurationError` before charging): no
        send can fail there, so the ledger ends as one :meth:`send_batch`
        per sweep leaves it, and telemetry counts the same ``net.bits`` and
        ``net.messages``.
        """
        if not self.deferrable or self._checked_pairs(links, require_edge=False) is None:
            raise ConfigurationError(
                "charge_totals needs perfect links, no budget and alive endpoints"
            )
        self.ledger.charge_totals(links[:, 0], links[:, 1], bits, messages, protocol)
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.count("net.batches", 1, protocol=protocol)
            telemetry.count("net.links", len(links), protocol=protocol)
            telemetry.count("net.messages", int(np.sum(messages)), protocol=protocol)
            telemetry.count("net.bits", int(np.sum(bits)), protocol=protocol)

    def _send_batch_impl(self, links, sizes, protocol: str, require_edge: bool):
        if len(links) != len(sizes):
            raise ConfigurationError(
                f"send_batch got {len(links)} links but {len(sizes)} sizes"
            )
        require_sizes(sizes)
        as_array = isinstance(links, np.ndarray)
        pairs = self._checked_pairs(links, require_edge)
        if pairs is None:
            if as_array:
                links, sizes = _as_tuples(links), np.asarray(sizes).tolist()
            # The ordered loop owns the errors: it raises at the first bad
            # link, before any radio draw or charge.
            self._check_links(links, require_edge)
        _, copies = self._deliver(links if pairs is None else pairs, sizes, protocol)
        return copies if as_array else copies.tolist()

    def _checked_pairs(self, links, require_edge: bool):
        """The batch as a ``(k, 2)`` int64 array whose every link one array
        pass found between known, alive nodes (and, when ``require_edge`` is
        set, an alive link); ``None`` sends the batch down the ordered path.

        Only ids ``0..n-1`` have the alive mask the pass reads, and only a
        link array or a tuple list of more than
        :data:`~repro.network.accounting.SMALL_BATCH` links is worth
        converting.  Ids must be exact integers: anything else, like any
        failing batch, is left to the ordered loop to name.
        """
        alive = self.alive_mask
        if alive is None:
            return None
        if isinstance(links, np.ndarray):
            if links.ndim != 2 or links.dtype.kind not in "iu":
                return None
            pairs = links
        elif len(links) <= SMALL_BATCH:
            return None
        else:
            pairs = _pair_array(links)
            if pairs is None:
                return None
        if not pairs.size:
            return pairs
        if pairs.min() < 0 or pairs.max() >= alive.size:
            return None
        pairs = pairs.astype(np.int64, copy=False)
        if self._dead and not alive[pairs].all():
            return None
        if require_edge and not self._links.has_rows(pairs[:, 0], pairs[:, 1]).all():
            return None
        return pairs

    def _check_links(self, links: Sequence[tuple[int, int]], require_edge: bool) -> None:
        """Raise the error :meth:`send` raises at the first bad link."""
        nodes = self._links
        dead = self._dead
        has_edge = nodes.has
        for sender, receiver in links:
            # Endpoints are validated even when the edge check is waived
            # (matching :meth:`send`) so a bogus id fails fast instead of
            # becoming a phantom ledger entry.
            if sender not in nodes or receiver not in nodes:
                raise ConfigurationError(
                    f"send between unknown nodes {sender} -> {receiver}"
                )
            if sender in dead or receiver in dead:
                raise DeadNodeError(
                    f"send between dead nodes {sender} -> {receiver}; "
                    "repair the tree before running protocols"
                )
            if require_edge and not has_edge(sender, receiver):
                raise TopologyError(
                    f"nodes {sender} and {receiver} are not neighbours; "
                    "multi-hop delivery must be routed explicitly"
                )

    def _deliver(self, links, sizes, protocol: str):
        """The one draw-then-charge step of :meth:`send` and
        :meth:`send_batch`, over checked links (a tuple list or a ``(k, 2)``
        int64 array): the radio draws every send, each is charged its
        attempts, and a permanent loss raises once the links before it are
        charged.  Returns the radio's ``(attempts, copies)`` arrays."""
        attempts, copies, failed = self.radio.filter_batch(links)
        sent = len(links) if failed is None else failed
        try:
            self._charge(links[:sent], sizes[:sent], attempts[:sent], protocol)
        except BudgetExceededError as error:
            # One send per link stops at the crossing link: so do the counts.
            self.radio.unsend(links[error.index + 1 : sent + 1])
            raise
        if failed is None:
            return attempts, copies
        sender, receiver = (int(end) for end in links[failed])
        error = DeliveryError(f"link {sender}->{receiver} failed after {attempts[failed]} attempts")
        error.index = failed
        raise error

    def _charge(self, links, sizes, attempts, protocol: str) -> None:
        """Charge link ``i`` ``attempts[i]`` transmissions: the pair array
        whole, a tuple list through the ledger's tuple path."""
        if isinstance(links, np.ndarray):
            self.ledger.charge_array(
                links[:, 0], links[:, 1], sizes, protocol=protocol, copies=attempts
            )
        else:
            self.ledger.charge_batch(links, sizes, attempts.tolist(), protocol=protocol)

    # ------------------------------------------------------------------ #
    # Measurement helpers
    # ------------------------------------------------------------------ #
    def reset_ledger(self) -> None:
        """Clear the communication counters (items and tree are preserved)."""
        self.ledger.reset()
        self.radio.reset()

    def measure(self, run: Callable[["SensorNetwork"], object]) -> tuple[object, "LedgerSnapshot"]:
        """Run a protocol callable against a fresh ledger and return (result, snapshot)."""
        self.reset_ledger()
        result = run(self)
        return result, self.ledger.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"SensorNetwork(nodes={self.num_nodes}, root={self.root_id}, "
            f"items={self.total_items()}, tree_height={self._flat_tree.height})"
        )


def _checked_items(values: Iterable[int]) -> list[int]:
    """``values`` as a list of ints, each a non-negative integer below 2**63;
    raises :class:`~repro.exceptions.ConfigurationError` otherwise."""
    items = list(values)
    for item in items:
        if type(item) is not int or not 0 <= item <= INT64_MAX:
            # Off the common case: name the bad item, convert numpy ints.
            items = [require_non_negative(item, "item") for item in items]
            if max(items) > INT64_MAX:
                raise ConfigurationError(f"items must be below 2**63, got {max(items)}")
            break
    return items


def _pair_array(links: Sequence[tuple[int, int]]):
    """A tuple batch as one ``(k, 2)`` int64 array, or ``None`` when some id
    is not an exact integer (the ledger's id rule refuses ``True``, ``3.5``,
    ``3.0`` and ``"3"``, which a plain int64 conversion would cast or
    parse)."""
    try:
        return link_pairs(links)
    except (ConfigurationError, TypeError, ValueError, OverflowError):
        return None


def _as_tuples(pairs) -> list[tuple[int, int]]:
    """A ``(k, 2)`` link array as the id-level tuple list of Python ints."""
    return list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))
