"""The sensor-network simulator.

:class:`SensorNetwork` ties together a topology, the sensor nodes with their
input items, a rooted spanning tree, a radio model and the communication
ledger.  Protocols interact with the network exclusively through

* :meth:`send` — transmit a payload of an explicitly declared size over a
  graph edge (charged to the ledger, filtered through the radio model),
* the batched primitive :meth:`send_batch` — plan a whole wave of
  synchronous-round transmissions and charge them in one ledger call, and
* the node objects — for *local* computation only.

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

from typing import Callable, Iterable, Iterator, Mapping, Sequence

import networkx as nx
import numpy as np

from repro._util.validation import require_non_negative
from repro.exceptions import (
    ConfigurationError,
    DeadNodeError,
    DeliveryError,
    EmptyNetworkError,
    TopologyError,
)
from repro.network.accounting import (
    ArrayLedger,
    CommunicationLedger,
    LedgerSnapshot,
)
from repro.network.flat_tree import FlatTree
from repro.network.links import LinkTable, as_link_table
from repro.network.message import Message
from repro.network.node import SensorNode
from repro.network.radio import (
    DELIVERED_ONCE,
    DeliveryOutcome,
    RadioModel,
    ReliableRadio,
)
from repro.network.spanning_tree import SpanningTree, build_tree
from repro.network.topology import build_links
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder, as_recorder

#: Valid values of :attr:`SensorNetwork.execution`.
#:
#: ``"batched"`` and ``"per-edge"`` select the charging path of the generic
#: tree protocols.  ``"vectorized"`` and ``"sharded"`` additionally make the
#: streaming layer run its fused numpy epoch pipeline
#: (:class:`repro.streaming.vector_engine.VectorStreamEngine`) — single
#: process or subtree-sharded multiprocessing respectively; generic one-shot
#: protocols treat both exactly like ``"batched"``, so every mode stays
#: bit-for-bit ledger-identical.  A network constructed in one of the two
#: array modes without an explicit ``ledger=`` meters on the dense
#: :class:`~repro.network.ArrayLedger` (ids ``0..n-1``).
EXECUTION_MODES = ("batched", "per-edge", "vectorized", "sharded")


class SensorNetwork:
    """A simulated sensor network holding integer items at each node."""

    def __init__(
        self,
        graph: LinkTable | nx.Graph,
        root: int = 0,
        radio: RadioModel | None = None,
        tree: SpanningTree | None = None,
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
        self._graph_view: nx.Graph | None = None
        self.root_id = root
        self.radio = radio if radio is not None else ReliableRadio()
        self.execution = execution
        self._sorted_ids: list[int] = links.node_ids()
        self._nodes: dict[int, SensorNode] = {
            node_id: SensorNode(node_id=node_id, is_root=(node_id == root))
            for node_id in self._sorted_ids
        }
        self._dead: set[int] = set()
        num_nodes = len(self._sorted_ids)
        dense_ids = links.dense
        #: ``_dead`` as a boolean array indexed by node id, for whole-array
        #: endpoint checks (treat as read-only); ``None`` when the ids are
        #: not ``0..n-1``.
        self.alive_mask = np.ones(num_nodes, dtype=bool) if dense_ids else None
        if ledger is None:
            # The array modes charge link arrays, which only the dense
            # ledger takes without a per-link loop; the list modes send many
            # small tuple batches, where the dict ledger is the faster one.
            if dense_ids and execution in ("vectorized", "sharded"):
                ledger = ArrayLedger(num_nodes)
            else:
                ledger = CommunicationLedger()
        self.ledger = ledger
        self._telemetry: TelemetryRecorder = NULL_RECORDER
        self.telemetry = telemetry
        self._tree_view: SpanningTree | None = None
        self.degree_bound = degree_bound
        # A spanning tree of the links is the connectivity check: the given
        # one is validated, a built one must reach every node.
        if tree is not None:
            tree.validate(links)
            self.set_tree(FlatTree.from_parents(tree.root, tree.parent))
        else:
            self.rebuild_tree()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_items(
        cls,
        items: Sequence[int],
        topology: str | LinkTable | nx.Graph = "grid",
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
        for node_id, value in zip(network._sorted_ids, items):
            network._nodes[node_id].add_item(value)
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
        is the simple reference implementation.  ``"vectorized"`` and
        ``"sharded"`` opt the streaming layer into the fused numpy epoch
        pipeline (single-process, or subtree-sharded worker processes);
        generic tree protocols treat them like ``"batched"``.  Every mode
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

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #
    @property
    def links(self) -> LinkTable:
        """The link table: the one owner of link state (treat as read-only;
        change links through :meth:`drop_link` / :meth:`restore_link`)."""
        return self._links

    @property
    def graph(self) -> nx.Graph:
        """A frozen ``nx.Graph`` of the alive links, for readers that want one.

        Built on first access and rebuilt after a link change; mutating it
        raises.  Nothing on a repair, election or epoch path reads it — they
        read :attr:`links`.
        """
        if self._graph_view is None:
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

    _UNSET = object()

    def rebuild_tree(self, degree_bound: object = _UNSET) -> FlatTree:
        """Rebuild and install the spanning tree, optionally changing the
        degree bound; returns the new :attr:`flat_tree`.

        Pass ``degree_bound=None`` explicitly to switch to an unbounded BFS
        tree; omit the argument to keep the current bound.
        """
        if degree_bound is not SensorNetwork._UNSET:
            self.degree_bound = degree_bound  # type: ignore[assignment]
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
        return self._nodes[self.root_id]

    @property
    def flat_tree(self) -> FlatTree:
        """The spanning tree: the one owner of tree state (treat as
        read-only; a tree change installs a new one via :meth:`set_tree`)."""
        return self._flat_tree

    @property
    def tree(self) -> SpanningTree:
        """A frozen :class:`SpanningTree` view of :attr:`flat_tree`.

        Built on first access and dropped by :meth:`set_tree`; mutating it
        raises.  The per-edge reference paths and one-off readers use it —
        no array repair, election, detection or epoch path builds it.
        """
        if self._tree_view is None:
            self._tree_view = SpanningTree.from_flat(self._flat_tree, frozen=True)
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
    def node_map(self) -> Mapping[int, SensorNode]:
        """The node-id → :class:`SensorNode` table (treat as read-only)."""
        return self._nodes

    def node(self, node_id: int) -> SensorNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigurationError(f"unknown node id {node_id}") from None

    def nodes(self) -> Iterator[SensorNode]:
        """Iterate over nodes in id order."""
        nodes = self._nodes
        for node_id in self._sorted_ids:
            yield nodes[node_id]

    def node_ids(self) -> list[int]:
        """Node ids in ascending order (copied from a cache, never re-sorted)."""
        return list(self._sorted_ids)

    def assign_items(self, per_node_items: dict[int, Iterable[int]]) -> None:
        """Replace the items of the listed nodes (others keep theirs)."""
        for node_id, values in per_node_items.items():
            node = self.node(node_id)
            node.clear_items()
            node.add_items(values)

    def clear_items(self) -> None:
        """Remove every item from every node."""
        for node in self._nodes.values():
            node.clear_items()

    def all_items(self) -> list[int]:
        """Ground-truth multiset of all items, for verification only.

        Protocols must never call this — it bypasses the communication model.
        The test-suite and the experiment harness use it to check protocol
        outputs against the true answer.
        """
        items: list[int] = []
        for node in self.nodes():
            items.extend(node.items)
        return items

    def total_items(self) -> int:
        """Ground-truth value of N = |X| (verification only)."""
        return sum(node.item_count for node in self._nodes.values())

    def max_item(self) -> int:
        """Ground-truth max(X) (verification only)."""
        items = self.all_items()
        if not items:
            raise EmptyNetworkError("network holds no items")
        return max(items)

    def reset_scratch(self) -> None:
        """Clear per-protocol scratch state on every node."""
        for node in self._nodes.values():
            node.reset_scratch()

    # ------------------------------------------------------------------ #
    # Liveness (the alive-mask consumed by the fault-tolerance engine)
    # ------------------------------------------------------------------ #
    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently alive (crashed nodes are not)."""
        return node_id not in self._dead

    def kill_node(self, node_id: int, allow_root: bool = False) -> None:
        """Crash ``node_id``: it loses its readings and scratch state and can
        neither send nor receive until revived.

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
        node = self.node(node_id)
        self._dead.add(node_id)
        if self.alive_mask is not None:
            self.alive_mask[node_id] = False
        node.clear_items()
        node.reset_scratch()

    def set_root(self, node_id: int) -> None:
        """Re-root the network's *identity* at ``node_id`` (must be alive).

        Updates :attr:`root_id` and the per-node ``is_root`` flags only —
        the spanning tree is left untouched, because re-rooting the tree is
        a charged operation (:class:`~repro.faults.RootElection` decides and
        bills it, :class:`~repro.faults.TreeRepair` installs the re-rooted
        tree).  Callers flipping the root outside that pipeline must install
        a tree rooted at ``node_id`` themselves before running protocols.
        """
        if node_id in self._dead:
            raise ConfigurationError(
                f"cannot root the network at dead node {node_id}"
            )
        node = self.node(node_id)
        self._nodes[self.root_id].is_root = False
        node.is_root = True
        self.root_id = node_id

    def revive_node(self, node_id: int) -> None:
        """Bring a crashed node back (with no items; rejoin supplies fresh ones)."""
        self.node(node_id)
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
        return len(self._nodes) - len(self._dead)

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
        nodes = self._nodes
        items: list[int] = []
        for node_id in self.attached_node_ids():
            items.extend(nodes[node_id].items)
        return items

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
        require_non_negative(size_bits, "size_bits")
        if sender not in self._nodes or receiver not in self._nodes:
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
        outcome = self.radio.transmit(sender, receiver)
        charged_attempts = max(outcome.attempts, outcome.copies_delivered)
        for _ in range(charged_attempts):
            self.ledger.charge(sender, receiver, size_bits, protocol=protocol)
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.count("net.sends", 1, protocol=protocol)
            telemetry.count("net.messages", charged_attempts, protocol=protocol)
            telemetry.count(
                "net.bits", size_bits * charged_attempts, protocol=protocol
            )
        message = Message(
            sender=sender,
            receiver=receiver,
            payload=payload,
            size_bits=size_bits,
            protocol=protocol,
            metadata={"copies_delivered": outcome.copies_delivered},
        )
        return message

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

        The batched counterpart of :meth:`send`: the whole batch is filtered
        through the radio model *in link order* (a seeded lossy radio
        consumes randomness exactly as per-link sends would) and charged to
        the ledger in one :meth:`CommunicationLedger.charge_batch` call, so
        the resulting ledger is bit-for-bit identical to the per-edge path.
        Payload objects are not simulated here — batched callers hand
        payloads to receivers themselves — so the return value is the
        ``copies_delivered`` count per link.

        ``links`` may also be a ``(k, 2)`` int64 array with ``sizes`` an
        int64 array (what the vectorized paths already hold); the copies
        then come back as an int64 array.  Same checks, same charges: on
        perfect links the arrays are validated and charged whole, any other
        configuration is converted once and takes the ordered code above.
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

    def _send_batch_impl(
        self,
        links: Sequence[tuple[int, int]],
        sizes: Sequence[int],
        protocol: str,
        require_edge: bool,
    ) -> list[int]:
        if len(links) != len(sizes):
            raise ConfigurationError(
                f"send_batch got {len(links)} links but {len(sizes)} sizes"
            )
        if isinstance(links, np.ndarray):
            return self._send_link_array(links, sizes, protocol, require_edge)
        nodes = self._nodes
        dead = self._dead
        if require_edge:
            has_edge = self._links.has
            for sender, receiver in links:
                if sender not in nodes or receiver not in nodes:
                    raise ConfigurationError(
                        f"send between unknown nodes {sender} -> {receiver}"
                    )
                if sender in dead or receiver in dead:
                    raise DeadNodeError(
                        f"send between dead nodes {sender} -> {receiver}; "
                        "repair the tree before running protocols"
                    )
                if not has_edge(sender, receiver):
                    raise TopologyError(
                        f"nodes {sender} and {receiver} are not neighbours; "
                        "multi-hop delivery must be routed explicitly"
                    )
        else:
            # Endpoints are validated even when the edge check is waived
            # (matching :meth:`send`) so a bogus id fails fast instead of
            # becoming a phantom ledger entry.
            for sender, receiver in links:
                if sender not in nodes or receiver not in nodes:
                    raise ConfigurationError(
                        f"send between unknown nodes {sender} -> {receiver}"
                    )
                if sender in dead or receiver in dead:
                    raise DeadNodeError(
                        f"send between dead nodes {sender} -> {receiver}; "
                        "repair the tree before running protocols"
                    )
        if self.ledger.per_node_budget_bits is not None:
            # Budget enforcement must interleave radio draws and charges
            # per link, so both the BudgetExceededError raise point and the
            # radio RNG state at that point match the per-edge path exactly.
            transmit = self.radio.transmit
            charge = self.ledger.charge
            copies_delivered: list[int] = []
            for (sender, receiver), size in zip(links, sizes):
                outcome = transmit(sender, receiver)
                copies = outcome.copies_delivered
                for _ in range(max(outcome.attempts, copies)):
                    charge(sender, receiver, size, protocol=protocol)
                copies_delivered.append(copies)
            return copies_delivered
        if type(self.radio) is ReliableRadio:
            # Perfect links need no radio pass at all: one attempt, one copy.
            self.ledger.charge_batch(links, sizes, None, protocol=protocol)
            return [1] * len(links)
        try:
            outcomes = self.radio.filter_batch(links)
        except DeliveryError as error:
            # Ledger equivalence on the failure path too: the per-edge loop
            # charges every link delivered before the failing one (and not
            # the failing link itself, whose transmit raised before its
            # charge), so charge exactly that prefix before re-raising.
            delivered = getattr(error, "outcomes_before_failure", None)
            if delivered:
                prefix = len(delivered)
                self._charge_outcomes(
                    links[:prefix], sizes[:prefix], delivered, protocol
                )
            raise
        return self._charge_outcomes(links, sizes, outcomes, protocol)

    def _send_link_array(self, links, sizes, protocol: str, require_edge: bool):
        """:meth:`send_batch` for a ``(k, 2)`` link array; copies as an array."""
        alive = self.alive_mask
        if (
            not require_edge
            and alive is not None
            and type(self.radio) is ReliableRadio
            and self.ledger.per_node_budget_bits is None
            and (
                links.size == 0
                or (
                    links.min() >= 0
                    and links.max() < alive.size
                    and alive[links].all()
                )
            )
        ):
            # Perfect links, every endpoint known and alive: nothing depends
            # on link order, so the arrays go to the ledger whole.
            self.ledger.charge_array(
                links[:, 0], links[:, 1], sizes, protocol=protocol
            )
            return np.ones(len(links), dtype=np.int64)
        # Radio draws, budget raise points, edge checks and the error a bad
        # endpoint raises all follow link order: the list code owns them.
        copies = self._send_batch_impl(
            list(zip(links[:, 0].tolist(), links[:, 1].tolist())),
            np.asarray(sizes).tolist(),
            protocol,
            require_edge,
        )
        return np.asarray(copies, dtype=np.int64)

    def _charge_outcomes(
        self,
        links: Sequence[tuple[int, int]],
        sizes: Sequence[int],
        outcomes: Sequence[DeliveryOutcome],
        protocol: str,
    ) -> list[int]:
        """Charge filtered radio outcomes to the ledger; return copies per link."""
        charged: list[int] = []
        copies_delivered: list[int] = []
        append_charged = charged.append
        append_copies = copies_delivered.append
        all_once = True
        for outcome in outcomes:
            if outcome is DELIVERED_ONCE:  # the overwhelmingly common case
                append_charged(1)
                append_copies(1)
            else:
                all_once = False
                copies = outcome.copies_delivered
                append_charged(max(outcome.attempts, copies))
                append_copies(copies)
        self.ledger.charge_batch(
            links, sizes, None if all_once else charged, protocol=protocol
        )
        return copies_delivered

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
