"""Communication-complexity accounting.

The paper's central cost measure (Section 2.1) is the *individual*
communication complexity: the maximum, over all nodes, of the number of bits
transmitted **and** received by that node.  :class:`CommunicationLedger`
records every charged transmission and exposes that measure, together with
totals, per-protocol breakdowns and message/round counts used by the
experiment harness.

Two charging paths exist and are bit-for-bit equivalent:

* :meth:`CommunicationLedger.charge` — one transmission at a time, used by
  the per-edge execution path (``SensorNetwork.send``);
* :meth:`CommunicationLedger.charge_batch` — a whole batch of transmissions
  in one call, used by the batched execution path.  One batch entry with
  ``copies`` repetitions is accounted exactly like ``copies`` individual
  :meth:`charge` calls.

For measuring a single protocol invocation, :meth:`mark` returns a
lightweight :class:`LedgerMark` that records per-node baselines lazily — only
for nodes the protocol actually touches — so computing the invocation's
per-node delta is O(touched nodes), not O(network size).  (A full
:meth:`snapshot` still copies the per-node table and remains available for
callers that need the absolute state.)
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

from repro._util.fastpath import np as _np
from repro._util.validation import require_non_negative
from repro.exceptions import BudgetExceededError, ConfigurationError


@dataclass
class NodeTraffic:
    """Per-node traffic counters."""

    bits_sent: int = 0
    bits_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0

    @property
    def bits_total(self) -> int:
        """Bits transmitted plus received — the paper's per-node cost."""
        return self.bits_sent + self.bits_received

    def merge(self, other: "NodeTraffic") -> None:
        """Accumulate another traffic record into this one."""
        self.bits_sent += other.bits_sent
        self.bits_received += other.bits_received
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received


@dataclass
class LedgerSnapshot:
    """Immutable summary of a ledger at one point in time."""

    per_node_bits: dict[int, int]
    total_bits: int
    max_node_bits: int
    messages: int
    rounds: int
    per_protocol_bits: dict[str, int] = field(default_factory=dict)


class LedgerMark:
    """A position marker on a ledger, for O(touched-nodes) interval metering.

    The mark records the scalar counters eagerly and per-node baselines
    *lazily*: while the mark is active, the first charge that touches a node
    stores that node's pre-charge total in :attr:`node_baseline`.  The delta
    of the interval is then computable by looking only at the touched nodes —
    a polylog-bit protocol on a 100k-node network diffs a handful of entries
    instead of copying two 100k-entry dictionaries.
    """

    __slots__ = ("total_bits", "messages", "rounds", "node_baseline")

    def __init__(self, total_bits: int, messages: int, rounds: int) -> None:
        self.total_bits = total_bits
        self.messages = messages
        self.rounds = rounds
        self.node_baseline: dict[int, int] = {}

    def rebase(self, total_bits: int, messages: int, rounds: int) -> None:
        """Reset the mark to a new origin (used when the ledger is reset)."""
        self.total_bits = total_bits
        self.messages = messages
        self.rounds = rounds
        self.node_baseline.clear()


def _record_baselines(marks, sender, sender_traffic, receiver, receiver_traffic):
    """Record pre-charge per-node totals on every active mark (first touch only)."""
    for mark in marks:
        baseline = mark.node_baseline
        if sender not in baseline:
            baseline[sender] = sender_traffic.bits_sent + sender_traffic.bits_received
        if receiver not in baseline:
            baseline[receiver] = (
                receiver_traffic.bits_sent + receiver_traffic.bits_received
            )


class CommunicationLedger:
    """Records every bit sent or received by every node.

    The ledger is deliberately independent of the network topology: protocols
    charge transmissions explicitly via :meth:`charge` or
    :meth:`charge_batch`, which keeps the accounting honest even for
    protocols that bypass the spanning tree (e.g. gossip baselines).

    An optional ``per_node_budget_bits`` turns the ledger into an enforcement
    mechanism: exceeding the budget raises :class:`BudgetExceededError`, which
    is how the test suite demonstrates the Ω(n) behaviour of exact
    COUNT DISTINCT without actually shipping gigabytes of simulated traffic.
    """

    def __init__(self, per_node_budget_bits: int | None = None) -> None:
        if per_node_budget_bits is not None:
            require_non_negative(per_node_budget_bits, "per_node_budget_bits")
        self._per_node: dict[int, NodeTraffic] = defaultdict(NodeTraffic)
        self._per_protocol_bits: dict[str, int] = defaultdict(int)
        self._messages = 0
        self._rounds = 0
        self._total_bits = 0
        self._budget = per_node_budget_bits
        self._marks: list[LedgerMark] = []

    @property
    def per_node_budget_bits(self) -> int | None:
        """The configured per-node budget, or ``None`` when unenforced."""
        return self._budget

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def charge(
        self,
        sender: int,
        receiver: int,
        size_bits: int,
        protocol: str = "unknown",
    ) -> None:
        """Charge a single transmission of ``size_bits`` from sender to receiver."""
        require_non_negative(size_bits, "size_bits")
        sender_traffic = self._per_node[sender]
        receiver_traffic = self._per_node[receiver]
        if self._marks:
            _record_baselines(
                self._marks, sender, sender_traffic, receiver, receiver_traffic
            )
        sender_traffic.bits_sent += size_bits
        sender_traffic.messages_sent += 1
        receiver_traffic.bits_received += size_bits
        receiver_traffic.messages_received += 1
        self._per_protocol_bits[protocol] += size_bits
        self._messages += 1
        self._total_bits += size_bits
        if self._budget is not None:
            for node_id, traffic in ((sender, sender_traffic), (receiver, receiver_traffic)):
                if traffic.bits_total > self._budget:
                    raise BudgetExceededError(
                        f"node {node_id} exceeded per-node budget of "
                        f"{self._budget} bits ({traffic.bits_total} bits used)"
                    )

    def charge_batch(
        self,
        links: Sequence[tuple[int, int]],
        sizes: Sequence[int],
        copies: Sequence[int] | None = None,
        protocol: str = "unknown",
    ) -> None:
        """Charge a batch of transmissions in one call.

        ``links`` is a sequence of ``(sender, receiver)`` pairs and ``sizes``
        the per-link transmission size in bits.  ``copies`` optionally gives a
        per-link repetition count (radio retries/duplicates); ``None`` means
        every link is charged exactly once.  Link ``i`` is accounted exactly
        like ``copies[i]`` calls to :meth:`charge` with the same
        sender/receiver/size, in link order, so the per-edge and batched
        execution paths produce bit-for-bit identical ledgers.  Links with
        ``copies[i] <= 0`` are skipped.

        When a per-node budget is configured the batch falls back to
        per-transmission charging so the :class:`BudgetExceededError` fires at
        the same transmission it would on the per-edge path.
        """
        if not links:
            # An empty batch must leave no trace (the per-edge path would
            # simply not have charged), not a zero-bit per-protocol entry.
            return
        # Validate every size before mutating any state, so a bad size cannot
        # leave per-node counters charged with the scalar totals unapplied.
        for size_bits in sizes:
            if size_bits < 0:
                require_non_negative(size_bits, "size_bits")
        if self._budget is not None:
            if copies is None:
                for (sender, receiver), size_bits in zip(links, sizes):
                    self.charge(sender, receiver, size_bits, protocol=protocol)
            else:
                for (sender, receiver), size_bits, count in zip(links, sizes, copies):
                    for _ in range(count):
                        self.charge(sender, receiver, size_bits, protocol=protocol)
            return
        per_node = self._per_node
        marks = self._marks
        protocol_bits = 0
        messages = 0
        if copies is None:
            for (sender, receiver), size_bits in zip(links, sizes):
                sender_traffic = per_node[sender]
                receiver_traffic = per_node[receiver]
                if marks:
                    _record_baselines(
                        marks, sender, sender_traffic, receiver, receiver_traffic
                    )
                sender_traffic.bits_sent += size_bits
                sender_traffic.messages_sent += 1
                receiver_traffic.bits_received += size_bits
                receiver_traffic.messages_received += 1
                protocol_bits += size_bits
            messages = len(links)
        else:
            for (sender, receiver), size_bits, count in zip(links, sizes, copies):
                if count <= 0:
                    continue
                sender_traffic = per_node[sender]
                receiver_traffic = per_node[receiver]
                if marks:
                    _record_baselines(
                        marks, sender, sender_traffic, receiver, receiver_traffic
                    )
                bits = size_bits * count
                sender_traffic.bits_sent += bits
                sender_traffic.messages_sent += count
                receiver_traffic.bits_received += bits
                receiver_traffic.messages_received += count
                protocol_bits += bits
                messages += count
        if messages:
            self._per_protocol_bits[protocol] += protocol_bits
            self._messages += messages
            self._total_bits += protocol_bits

    def charge_array(
        self,
        senders,
        receivers,
        sizes,
        protocol: str = "unknown",
        copies=None,
    ) -> None:
        """Charge parallel sender/receiver/size arrays in one call.

        The array-shaped twin of :meth:`charge_batch`, used by the vectorized
        execution path: ``senders[i]`` transmitted ``sizes[i]`` bits to
        ``receivers[i]`` (``copies[i]`` times, when given).  On the base
        dict-backed ledger this *delegates* to :meth:`charge_batch` — every
        mark, budget and ordering behaviour is identical, which is what the
        representation-equivalence suite relies on; :class:`ArrayLedger`
        overrides it with a whole-array implementation.

        Inputs may be numpy arrays or plain sequences; they are normalised to
        Python ints before touching the per-node table, so dict keys and
        per-protocol totals never hold numpy scalars.
        """
        senders = _as_int_list(senders)
        receivers = _as_int_list(receivers)
        self.charge_batch(
            list(zip(senders, receivers)),
            _as_int_list(sizes),
            copies=None if copies is None else _as_int_list(copies),
            protocol=protocol,
        )

    def charge_local(self, node: int, size_bits: int, protocol: str = "local") -> None:
        """Charge bits that a node stores/processes locally without transmitting.

        Not part of the communication-complexity measure; tracked only so the
        space-oriented experiments can report it.
        """
        require_non_negative(size_bits, "size_bits")
        self._per_protocol_bits[f"{protocol}:local"] += size_bits

    def advance_round(self, count: int = 1) -> None:
        """Record ``count`` additional synchronous communication rounds."""
        require_non_negative(count, "count")
        self._rounds += count

    # ------------------------------------------------------------------ #
    # Interval metering (marks)
    # ------------------------------------------------------------------ #
    def mark(self) -> LedgerMark:
        """Start an O(touched-nodes) metering interval and return its mark."""
        mark = LedgerMark(
            total_bits=self._total_bits,
            messages=self._messages,
            rounds=self._rounds,
        )
        self._marks.append(mark)
        return mark

    def release(self, mark: LedgerMark) -> None:
        """Stop recording baselines for ``mark`` (idempotent).

        The mark's recorded baselines stay valid, so deltas can still be read
        after release; only *new* node touches stop being tracked.
        """
        try:
            self._marks.remove(mark)
        except ValueError:
            pass

    def node_deltas_since(self, mark: LedgerMark) -> dict[int, int]:
        """Per-node bits added since ``mark``, for the touched nodes only."""
        per_node = self._per_node
        return {
            node: per_node[node].bits_sent
            + per_node[node].bits_received
            - baseline
            for node, baseline in mark.node_baseline.items()
        }

    def max_node_delta_since(self, mark: LedgerMark) -> int:
        """Largest per-node bits delta since ``mark`` (0 if nothing was charged)."""
        deltas = self.node_deltas_since(mark)
        return max(deltas.values(), default=0)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def traffic(self, node: int) -> NodeTraffic:
        """Return the traffic record for ``node`` (zeros if it never communicated)."""
        return self._per_node[node]

    def node_bits(self, node: int) -> int:
        """Bits sent plus received by ``node``."""
        return self._per_node[node].bits_total

    @property
    def max_node_bits(self) -> int:
        """The paper's communication-complexity measure: max over nodes."""
        if not self._per_node:
            return 0
        return max(traffic.bits_total for traffic in self._per_node.values())

    @property
    def total_bits(self) -> int:
        """Total bits transmitted across the whole network (each bit counted once)."""
        return self._total_bits

    @property
    def total_messages(self) -> int:
        return self._messages

    @property
    def rounds(self) -> int:
        return self._rounds

    def per_protocol_bits(self) -> dict[str, int]:
        """Total bits broken down by the protocol label passed to :meth:`charge`."""
        return dict(self._per_protocol_bits)

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids that have sent or received at least one message."""
        return iter(self._per_node.keys())

    def counters_snapshot(self) -> LedgerSnapshot:
        """Scalar counters and per-protocol breakdown only — O(#protocols).

        ``per_node_bits`` is left empty and ``max_node_bits`` reported as 0;
        use this for interval diffs that only need totals (the streaming
        engines take one per epoch), and :meth:`snapshot` when per-node
        detail is required.
        """
        return LedgerSnapshot(
            per_node_bits={},
            total_bits=self._total_bits,
            max_node_bits=0,
            messages=self._messages,
            rounds=self._rounds,
            per_protocol_bits=dict(self._per_protocol_bits),
        )

    def snapshot(self) -> LedgerSnapshot:
        """Return an immutable summary of the current counters.

        This copies the full per-node table and is O(network size); prefer
        :meth:`mark` / :meth:`node_deltas_since` for metering one protocol
        invocation, and :meth:`counters_snapshot` for totals-only diffs.
        """
        return LedgerSnapshot(
            per_node_bits={
                node: traffic.bits_total for node, traffic in self._per_node.items()
            },
            total_bits=self._total_bits,
            max_node_bits=self.max_node_bits,
            messages=self._messages,
            rounds=self._rounds,
            per_protocol_bits=dict(self._per_protocol_bits),
        )

    def reset(self) -> None:
        """Clear all counters (budget configuration is retained).

        Active marks are rebased onto the cleared ledger, so a metering
        interval spanning a reset measures from the reset point onward.
        """
        self._per_node.clear()
        self._per_protocol_bits.clear()
        self._messages = 0
        self._rounds = 0
        self._total_bits = 0
        for mark in self._marks:
            mark.rebase(total_bits=0, messages=0, rounds=0)

    def _node_traffic(self) -> list[tuple[int, NodeTraffic]]:
        """``(node, traffic)`` for every per-node entry — what :meth:`merge`
        reads of the *other* ledger, whichever class it is."""
        return list(self._per_node.items())

    def merge(self, other: "CommunicationLedger") -> None:
        """Accumulate the counters of another ledger (of either class) into
        this one."""
        merged = other._node_traffic()
        if self._marks:
            # Record pre-merge baselines for every node the merge will touch,
            # so active metering intervals see the merged traffic as a delta.
            for node, _ in merged:
                traffic = self._per_node[node]
                for mark in self._marks:
                    if node not in mark.node_baseline:
                        mark.node_baseline[node] = traffic.bits_total
        for node, traffic in merged:
            self._per_node[node].merge(traffic)
        for protocol, bits in other._per_protocol_bits.items():
            self._per_protocol_bits[protocol] += bits
        self._messages += other._messages
        self._rounds += other._rounds
        self._total_bits += other._total_bits

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"CommunicationLedger(max_node_bits={self.max_node_bits}, "
            f"total_bits={self._total_bits}, messages={self._messages}, "
            f"rounds={self._rounds})"
        )


def _as_int_list(values) -> list[int]:
    """Normalise an array/sequence to a list of Python ints."""
    if hasattr(values, "tolist"):
        return values.tolist()
    return [int(value) for value in values]


#: Links converted per slice by :meth:`ArrayLedger.charge_batch`.  An
#: election flood hands over several hundred thousand links as one tuple
#: list; whole-batch arrays beside it would set the process's peak memory.
_BATCH_CHUNK = 32768


def _link_chunks(links: Sequence[tuple[int, int]]):
    """``links`` as ``(start, (k, 2) int64 array)`` slices of bounded size."""
    for start in range(0, len(links), _BATCH_CHUNK):
        chunk = links[start : start + _BATCH_CHUNK]
        yield start, _np.fromiter(
            chain.from_iterable(chunk), dtype=_np.int64, count=2 * len(chunk)
        ).reshape(-1, 2)


class ArrayLedgerMark:
    """Interval marker on an :class:`ArrayLedger`.

    Where :class:`LedgerMark` records per-node baselines lazily on first
    touch (per-charge bookkeeping the vectorized path cannot afford), this
    mark snapshots the dense per-node totals column *once* at creation —
    one ``O(n)`` array copy, after which charging stays bookkeeping-free
    and interval deltas are one whole-array subtraction.
    """

    __slots__ = ("total_bits", "messages", "rounds", "node_total")

    def __init__(self, total_bits: int, messages: int, rounds: int, node_total) -> None:
        self.total_bits = total_bits
        self.messages = messages
        self.rounds = rounds
        self.node_total = node_total

    def rebase(self, total_bits: int, messages: int, rounds: int) -> None:
        """Reset the mark to a new origin (used when the ledger is reset)."""
        self.total_bits = total_bits
        self.messages = messages
        self.rounds = rounds
        self.node_total = _np.zeros_like(self.node_total)


class ArrayLedger(CommunicationLedger):
    """Dense array-backed ledger for fields with node ids ``0..n-1``.

    The dict-backed :class:`CommunicationLedger` pays one hash probe and one
    ``NodeTraffic`` attribute update per endpoint per charge — at a million
    nodes that alone dwarfs an epoch's kernel time.  This subclass keeps the
    per-node counters as four contiguous ``int64`` columns and makes
    :meth:`charge_array` a handful of ``np.add.at`` scatter-adds, while
    keeping every observable — :meth:`snapshot`, :meth:`counters_snapshot`,
    per-protocol totals, marks for the telemetry spans — semantically
    identical to the base ledger (per-node entries exist exactly for nodes
    that sent or received at least one message, numpy scalars never leak
    out).  An id outside ``0..n-1`` raises
    :class:`~repro.exceptions.ConfigurationError` before anything is
    charged.  :class:`~repro.network.SensorNetwork` picks this class by
    default for the ``"vectorized"`` / ``"sharded"`` execution modes.

    Per-node budgets are *not* supported: budget enforcement must interleave
    the budget check with every individual transmission, which is exactly
    the per-charge Python loop this class exists to avoid.  Use the base
    ledger for budgeted (lower-bound) experiments.
    """

    def __init__(self, num_nodes: int, per_node_budget_bits: int | None = None) -> None:
        from repro._util.fastpath import require_numpy

        np = require_numpy("ArrayLedger")
        if per_node_budget_bits is not None:
            raise ConfigurationError(
                "ArrayLedger does not enforce per-node budgets; use "
                "CommunicationLedger for budgeted experiments"
            )
        require_non_negative(num_nodes, "num_nodes")
        super().__init__(None)
        self._num_nodes = num_nodes
        self._bits_sent = np.zeros(num_nodes, dtype=np.int64)
        self._bits_received = np.zeros(num_nodes, dtype=np.int64)
        self._msgs_sent = np.zeros(num_nodes, dtype=np.int64)
        self._msgs_received = np.zeros(num_nodes, dtype=np.int64)
        # Totals cache: span closes, marks and the attribution sink all ask
        # for sent+received in quick succession; rebuilding the O(n) sum for
        # each asker dominated telemetry overhead at 100k nodes.  The cached
        # array is never mutated in place (charges invalidate and a refresh
        # allocates anew), so marks may safely hold a reference as baseline.
        self._totals_cache = None
        self._totals_dirty = True
        # Transient workspace for max_node_delta_since: allocated lazily
        # (only instrumented runs ask), reused across calls so the span
        # layer's per-close max costs three array passes and no allocation.
        self._delta_scratch = None
        # The inherited dict table must never be consulted: observing it
        # would silently report an empty ledger.  Poison it.
        self._per_node = None

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def _node_totals(self):
        if self._totals_dirty:
            self._totals_cache = self._bits_sent + self._bits_received
            self._totals_dirty = False
        return self._totals_cache

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def _require_known(self, ids) -> None:
        """Reject ids outside ``0..n-1`` before anything is charged: numpy
        would bill a negative id to a node counted from the end."""
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self._num_nodes):
            raise ConfigurationError(
                f"node ids must lie in 0..{self._num_nodes - 1}; got "
                f"{int(ids.min())}..{int(ids.max())}"
            )

    def charge(
        self,
        sender: int,
        receiver: int,
        size_bits: int,
        protocol: str = "unknown",
    ) -> None:
        require_non_negative(size_bits, "size_bits")
        if not (0 <= sender < self._num_nodes and 0 <= receiver < self._num_nodes):
            raise ConfigurationError(
                f"node ids must lie in 0..{self._num_nodes - 1}; got "
                f"{sender} -> {receiver}"
            )
        self._totals_dirty = True
        self._bits_sent[sender] += size_bits
        self._msgs_sent[sender] += 1
        self._bits_received[receiver] += size_bits
        self._msgs_received[receiver] += 1
        self._per_protocol_bits[protocol] += size_bits
        self._messages += 1
        self._total_bits += size_bits

    def charge_batch(
        self,
        links: Sequence[tuple[int, int]],
        sizes: Sequence[int],
        copies: Sequence[int] | None = None,
        protocol: str = "unknown",
    ) -> None:
        if not links:
            return
        if min(sizes) < 0:
            require_non_negative(min(sizes), "size_bits")
        if len(links) > _BATCH_CHUNK:
            # Every id is checked before the first slice is charged.
            for _, pairs in _link_chunks(links):
                self._require_known(pairs)
        for start, pairs in _link_chunks(links):
            stop = start + _BATCH_CHUNK
            self._charge_columns(
                pairs[:, 0],
                pairs[:, 1],
                _np.asarray(sizes[start:stop], dtype=_np.int64),
                None
                if copies is None
                else _np.asarray(copies[start:stop], dtype=_np.int64),
                protocol,
            )

    def charge_array(
        self,
        senders,
        receivers,
        sizes,
        protocol: str = "unknown",
        copies=None,
    ) -> None:
        np = _np
        sizes = np.asarray(sizes, dtype=np.int64)
        if bool((sizes < 0).any()):
            require_non_negative(int(sizes.min()), "size_bits")
        self._charge_columns(
            np.asarray(senders, dtype=np.int64),
            np.asarray(receivers, dtype=np.int64),
            sizes,
            None if copies is None else np.asarray(copies, dtype=np.int64),
            protocol,
        )

    def _charge_columns(self, senders, receivers, sizes, copies, protocol: str) -> None:
        """Scatter-add validated-size int64 columns into the per-node table."""
        np = _np
        if senders.size == 0:
            # An empty batch must leave no trace, matching charge_batch.
            return
        self._require_known(senders)
        self._require_known(receivers)
        if copies is None:
            weights = sizes
            messages = int(senders.size)
            np.add.at(self._msgs_sent, senders, 1)
            np.add.at(self._msgs_received, receivers, 1)
        else:
            live = copies > 0
            if not bool(live.all()):
                senders = senders[live]
                receivers = receivers[live]
                sizes = sizes[live]
                copies = copies[live]
            if senders.size == 0:
                return
            weights = sizes * copies
            messages = int(copies.sum())
            np.add.at(self._msgs_sent, senders, copies)
            np.add.at(self._msgs_received, receivers, copies)
        self._totals_dirty = True
        np.add.at(self._bits_sent, senders, weights)
        np.add.at(self._bits_received, receivers, weights)
        total = int(weights.sum())
        self._per_protocol_bits[protocol] += total
        self._messages += messages
        self._total_bits += total

    # ------------------------------------------------------------------ #
    # Interval metering (marks)
    # ------------------------------------------------------------------ #
    def mark(self) -> ArrayLedgerMark:
        mark = ArrayLedgerMark(
            total_bits=self._total_bits,
            messages=self._messages,
            rounds=self._rounds,
            node_total=self._node_totals(),
        )
        self._marks.append(mark)
        return mark

    def node_deltas_since(self, mark) -> dict[int, int]:
        """Per-node bits added since ``mark`` (nodes with a non-zero delta)."""
        deltas = self._node_totals() - mark.node_total
        touched = _np.nonzero(deltas)[0]
        return dict(zip(touched.tolist(), deltas[touched].tolist()))

    def node_delta_array(self, mark):
        """Per-node bits added since ``mark`` as one dense ``int64`` array.

        The attribution sink's fast path: one whole-array subtraction with
        no per-node Python objects, indexed by canonical position.
        """
        return self._node_totals() - mark.node_total

    def max_node_delta_since(self, mark) -> int:
        """Largest single-node bit delta since ``mark``.

        The result is a scalar, so the per-node subtraction runs on a
        reusable scratch buffer instead of allocating a delta array for
        every closing span.
        """
        if not self._num_nodes:
            return 0
        scratch = self._delta_scratch
        if scratch is None:
            scratch = self._delta_scratch = _np.empty(
                self._num_nodes, dtype=_np.int64
            )
        # _node_totals() refreshes the cache when dirty, so the next
        # mark() snapshots for free; the subtraction itself lands in the
        # scratch buffer because nobody keeps per-node deltas from here.
        _np.subtract(self._node_totals(), mark.node_total, out=scratch)
        return max(0, int(scratch.max()))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def traffic(self, node: int) -> NodeTraffic:
        """A *copy* of ``node``'s counters (the base class returns the live
        record; array columns have no per-node object to hand out)."""
        return NodeTraffic(
            bits_sent=int(self._bits_sent[node]),
            bits_received=int(self._bits_received[node]),
            messages_sent=int(self._msgs_sent[node]),
            messages_received=int(self._msgs_received[node]),
        )

    def node_bits(self, node: int) -> int:
        return int(self._bits_sent[node] + self._bits_received[node])

    def _touched_mask(self):
        return (self._msgs_sent + self._msgs_received) > 0

    @property
    def max_node_bits(self) -> int:
        touched = self._touched_mask()
        if not bool(touched.any()):
            return 0
        return int(self._node_totals()[touched].max())

    def nodes(self) -> Iterator[int]:
        return iter(_np.nonzero(self._touched_mask())[0].tolist())

    def snapshot(self) -> LedgerSnapshot:
        totals = self._node_totals()
        touched = _np.nonzero(self._touched_mask())[0]
        return LedgerSnapshot(
            per_node_bits=dict(
                zip(touched.tolist(), totals[touched].tolist())
            ),
            total_bits=self._total_bits,
            max_node_bits=int(totals[touched].max()) if touched.size else 0,
            messages=self._messages,
            rounds=self._rounds,
            per_protocol_bits=dict(self._per_protocol_bits),
        )

    def reset(self) -> None:
        self._totals_dirty = True
        self._bits_sent[:] = 0
        self._bits_received[:] = 0
        self._msgs_sent[:] = 0
        self._msgs_received[:] = 0
        self._per_protocol_bits.clear()
        self._messages = 0
        self._rounds = 0
        self._total_bits = 0
        for mark in self._marks:
            mark.rebase(total_bits=0, messages=0, rounds=0)

    def _node_traffic(self) -> list[tuple[int, NodeTraffic]]:
        return [(node, self.traffic(node)) for node in self.nodes()]

    def merge(self, other: CommunicationLedger) -> None:
        """Accumulate ``other`` — an :class:`ArrayLedger` over the same id
        space, or a dict-backed ledger whose ids fall inside it."""
        if isinstance(other, ArrayLedger):
            if other._num_nodes > self._num_nodes:
                raise ConfigurationError(
                    f"cannot merge a {other._num_nodes}-node ArrayLedger into "
                    f"a {self._num_nodes}-node one"
                )
            span = other._num_nodes
            self._bits_sent[:span] += other._bits_sent
            self._bits_received[:span] += other._bits_received
            self._msgs_sent[:span] += other._msgs_sent
            self._msgs_received[:span] += other._msgs_received
        else:
            merged = other._node_traffic()
            for node, _ in merged:
                if not 0 <= node < self._num_nodes:
                    raise ConfigurationError(
                        f"cannot merge traffic of node {node} into a "
                        f"{self._num_nodes}-node ArrayLedger"
                    )
            for node, traffic in merged:
                self._bits_sent[node] += traffic.bits_sent
                self._bits_received[node] += traffic.bits_received
                self._msgs_sent[node] += traffic.messages_sent
                self._msgs_received[node] += traffic.messages_received
        self._totals_dirty = True
        for protocol, bits in other._per_protocol_bits.items():
            self._per_protocol_bits[protocol] += bits
        self._messages += other._messages
        self._rounds += other._rounds
        self._total_bits += other._total_bits

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ArrayLedger(nodes={self._num_nodes}, "
            f"total_bits={self._total_bits}, messages={self._messages}, "
            f"rounds={self._rounds})"
        )
