"""Communication-complexity accounting.

The paper's central cost measure (Section 2.1) is the *individual*
communication complexity: the maximum, over all nodes, of the number of bits
transmitted **and** received by that node.  :class:`CommunicationLedger`, the
one ledger every execution path meters on, records every charged
transmission and exposes that measure, together with totals, per-protocol
breakdowns and message/round counts.  :meth:`~CommunicationLedger.charge`
(one transmission, the per-edge path) and
:meth:`~CommunicationLedger.charge_batch` /
:meth:`~CommunicationLedger.charge_array` (a tuple list or parallel arrays,
``SensorNetwork.send_batch``) are bit-for-bit equivalent: a batch entry with
``copies`` repetitions is ``copies`` :meth:`~CommunicationLedger.charge`
calls, budget raise point included.  A :class:`LedgerMark` meters one
interval.  The retired dict-backed ledger lives on in ``tests/`` as the
reference the test suite holds this one to.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import index
from typing import Iterator, Sequence

import numpy as np

from repro._util.validation import require_integer, require_non_negative
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
    """Interval marker on a :class:`CommunicationLedger`: one snapshot of
    the per-node totals column, after which charging stays bookkeeping-free
    and interval deltas are one whole-array subtraction.  Rows an unsized
    ledger grows after the mark count from zero.
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
        self.node_total = np.zeros_like(self.node_total)


#: Tuple batches up to this many links stay Python end to end: the ordered
#: check in ``SensorNetwork.send_batch`` and scalar adds into the columns in
#: :meth:`CommunicationLedger.charge_batch`.  On a 5%-loss 1,600-node grid
#: that costs about 6 µs + 3.5 µs a link, the array pass and scatter-adds
#: about 50 µs + 1 µs a link: the two cross at 20 links.  ``tenants_lossy``
#: sends 99% of its batches at this size, ``oneshot_paper`` none.
SMALL_BATCH = 20

#: Links converted per slice by :meth:`CommunicationLedger.charge_batch`.  An
#: election flood hands over several hundred thousand links as one tuple
#: list; whole-batch arrays beside it would set the process's peak memory.
_BATCH_CHUNK = 32768


def _int_ids(values: list) -> list:
    """``values``, refusing a ``bool``, float or string id (numpy would read
    ``True`` as a mask and cast ``3.5`` to node 3)."""
    if set(map(type, values)) - {int}:
        values = [require_integer(value, "node_id") for value in values]
    return values


def _id_column(values):
    """Node ids as an int64 column, refused as :func:`_int_ids` refuses them."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise ConfigurationError(f"node ids must be integers, got a {values.dtype} array")
        return values.astype(np.int64, copy=False)
    ids = _int_ids(list(values))
    return np.fromiter(ids, dtype=np.int64, count=len(ids))


def link_pairs(links: Sequence[tuple[int, int]]):
    """A tuple batch as one ``(k, 2)`` int64 array, under the same id rule.
    ``operator.index`` refuses floats and strings; a ``bool`` converts to 0
    or 1, so only those entries need their type read."""
    try:
        pairs = np.fromiter(map(index, chain.from_iterable(links)), np.int64, 2 * len(links))
    except TypeError:
        pairs = None
    if pairs is None or any(
        type(links[i >> 1][i & 1]) is bool for i in np.flatnonzero(pairs <= 1).tolist()
    ):
        _int_ids(list(chain.from_iterable(links)))  # raises, naming the id
    return pairs.reshape(-1, 2)


def _same_lengths(call: str, **columns) -> None:
    """Refuse parallel inputs of different lengths (``zip`` would drop the
    tail, numpy broadcast one size to all)."""
    lengths = [(name, len(column)) for name, column in columns.items() if column is not None]
    first, expected = lengths[0]
    for name, length in lengths[1:]:
        if length != expected:
            raise ConfigurationError(f"{call} got {expected} {first} but {length} {name}")


def _require_sizes(sizes) -> None:
    """Refuse a negative size before anything is charged, naming the first."""
    low = sizes.min() if isinstance(sizes, np.ndarray) else min(sizes)
    if low < 0:
        require_non_negative(next(size for size in sizes if size < 0), "size_bits")


class CommunicationLedger:
    """Records every bit sent or received by every node.

    The ledger is deliberately independent of the network topology: protocols
    charge transmissions explicitly via :meth:`charge`, :meth:`charge_batch`
    or :meth:`charge_array`, which keeps the accounting honest even for
    protocols that bypass the spanning tree (e.g. gossip baselines).

    The per-node counters are four ``int64`` columns indexed by node id.
    ``num_nodes=n`` sizes them for ids ``0..n-1`` (any other id raises
    :class:`~repro.exceptions.ConfigurationError` before anything is
    charged); without it they grow, with amortised doubling, to the highest
    id charged.  A sparse id indexes its own row, so memory is O(max id):
    :class:`~repro.network.SensorNetwork` sizes its ledger to ``max id + 1``,
    and the sparse fields it simulates are small.  Observables list exactly
    the nodes that sent or received a message, in Python ints.

    An optional ``per_node_budget_bits`` turns the ledger into an
    enforcement mechanism: the transmission that takes its sender or
    receiver over the budget is charged, then :class:`BudgetExceededError`
    is raised.  This is how the test suite demonstrates the Ω(n) behaviour
    of exact COUNT DISTINCT without shipping gigabytes of simulated traffic.
    """

    def __init__(
        self, num_nodes: int | None = None, per_node_budget_bits: int | None = None
    ) -> None:
        if per_node_budget_bits is not None:
            require_non_negative(per_node_budget_bits, "per_node_budget_bits")
        self._sized = num_nodes is not None
        rows = require_non_negative(num_nodes, "num_nodes") if self._sized else 0
        self._install(np.zeros((4, rows), dtype=np.int64))
        self._per_protocol_bits: dict[str, int] = defaultdict(int)
        self._messages = 0
        self._rounds = 0
        self._total_bits = 0
        self._budget = per_node_budget_bits
        self._marks: list[LedgerMark] = []
        # max_node_delta_since's workspace: the span layer's per-close max
        # costs three array passes and no allocation.
        self._delta_scratch = None

    def _install(self, table) -> None:
        """Adopt ``table`` (bits sent, bits received, messages sent, messages
        received: one row each) as the per-node columns."""
        self._table = table
        self._bits_sent, self._bits_received, self._msgs_sent, self._msgs_received = table
        self._num_nodes = table.shape[1]
        # Totals cache for span closes, marks and the attribution sink.  It
        # is never mutated in place (a refresh allocates anew), so marks may
        # hold a reference as their baseline.
        self._totals_cache = None
        self._totals_dirty = True

    @property
    def num_nodes(self) -> int:
        """Rows in the columns: ``num_nodes`` when sized, else as grown."""
        return self._num_nodes

    @property
    def per_node_budget_bits(self) -> int | None:
        """The configured per-node budget, or ``None`` when unenforced."""
        return self._budget

    def _node_totals(self):
        if self._totals_dirty:
            self._totals_cache = self._bits_sent + self._bits_received
            self._totals_dirty = False
        return self._totals_cache

    def _admit(self, low: int, high: int) -> None:
        """Refuse ids outside the ledger before anything is charged (numpy
        would bill ``-1`` to the last node); grow an unsized ledger's
        columns, with amortised doubling, to hold ``high``."""
        if low < 0 or (self._sized and high >= self._num_nodes):
            bound = f"lie in 0..{self._num_nodes - 1}" if self._sized else "be non-negative"
            raise ConfigurationError(f"node ids must {bound}; got {low}..{high}")
        if high >= self._num_nodes:
            table = np.zeros((4, max(high + 1, 2 * self._num_nodes)), dtype=np.int64)
            table[:, : self._num_nodes] = self._table
            self._install(table)

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def charge(self, sender: int, receiver: int, size_bits: int, protocol: str = "unknown") -> None:
        """Charge a single transmission of ``size_bits`` from sender to receiver."""
        size_bits = require_non_negative(size_bits, "size_bits")
        sender = require_integer(sender, "node_id")
        receiver = require_integer(receiver, "node_id")
        if not (0 <= sender < self._num_nodes and 0 <= receiver < self._num_nodes):
            self._admit(min(sender, receiver), max(sender, receiver))
        self._totals_dirty = True
        self._bits_sent[sender] += size_bits
        self._msgs_sent[sender] += 1
        self._bits_received[receiver] += size_bits
        self._msgs_received[receiver] += 1
        self._per_protocol_bits[protocol] += size_bits
        self._messages += 1
        self._total_bits += size_bits
        if self._budget is not None:
            self._check_budget(sender)
            self._check_budget(receiver)

    def _check_budget(self, node: int) -> None:
        used = int(self._bits_sent[node] + self._bits_received[node])
        if used > self._budget:
            message = f"node {node} exceeded per-node budget of {self._budget} bits"
            raise BudgetExceededError(f"{message} ({used} bits used)")

    def charge_batch(
        self,
        links: Sequence[tuple[int, int]],
        sizes: Sequence[int],
        copies: Sequence[int] | None = None,
        protocol: str = "unknown",
    ) -> None:
        """Charge ``(sender, receiver)`` links of ``sizes[i]`` bits, each
        ``copies[i]`` times when given (radio retries/duplicates;
        ``copies[i] <= 0`` skips the link, ``None`` charges each once).  Link
        ``i`` is accounted exactly like ``copies[i]`` :meth:`charge` calls in
        link order, so every execution path leaves the same ledger.  Lengths,
        sizes and ids are all checked before anything is charged."""
        _same_lengths("charge_batch", links=links, sizes=sizes, copies=copies)
        if not links:
            # An empty batch must leave no trace (the per-edge path would
            # simply not have charged), not a zero-bit per-protocol entry.
            return
        _require_sizes(sizes)
        if len(links) <= SMALL_BATCH and self._budget is None:
            self._charge_scalars(links, sizes, copies, protocol)
            return
        starts = range(0, len(links), _BATCH_CHUNK)
        if len(links) > _BATCH_CHUNK:
            # Every id is checked before the first slice is charged.
            for start in starts:
                pairs = link_pairs(links[start : start + _BATCH_CHUNK])
                self._admit(int(pairs.min()), int(pairs.max()))
        for start in starts:
            stop = start + _BATCH_CHUNK
            pairs = link_pairs(links[start:stop])
            counts = None if copies is None else copies[start:stop]
            self.charge_array(pairs[:, 0], pairs[:, 1], sizes[start:stop], protocol, counts)

    def _charge_scalars(self, links, sizes, copies, protocol: str) -> None:
        """:meth:`charge_batch` for a few links: the column path's checks,
        then scalar adds into the columns as :meth:`charge` makes them."""
        senders = _int_ids([link[0] for link in links])
        receivers = _int_ids([link[1] for link in links])
        self._admit(
            min(min(senders), min(receivers)), max(max(senders), max(receivers))
        )
        bits_sent, bits_received = self._bits_sent, self._bits_received
        msgs_sent, msgs_received = self._msgs_sent, self._msgs_received
        total = messages = 0
        for sender, receiver, size_bits, count in zip(
            senders, receivers, sizes, repeat(1) if copies is None else copies
        ):
            if count > 0:
                bits = size_bits * count
                bits_sent[sender] += bits
                bits_received[receiver] += bits
                msgs_sent[sender] += count
                msgs_received[receiver] += count
                total += bits
                messages += count
        if messages:
            self._totals_dirty = True
            self._per_protocol_bits[protocol] += int(total)
            self._messages += int(messages)
            self._total_bits += int(total)

    def charge_array(
        self, senders, receivers, sizes, protocol: str = "unknown", copies=None
    ) -> None:
        """The array-shaped twin of :meth:`charge_batch`: ``senders[i]``
        transmitted ``sizes[i]`` bits to ``receivers[i]`` (``copies[i]``
        times, when given); numpy arrays or plain sequences."""
        _same_lengths(
            "charge_array", senders=senders, receivers=receivers, sizes=sizes, copies=copies
        )
        senders, receivers = _id_column(senders), _id_column(receivers)
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size:
            _require_sizes(sizes)
        self._charge_columns(
            senders,
            receivers,
            sizes,
            None if copies is None else np.asarray(copies, dtype=np.int64),
            protocol,
        )

    def _charge_columns(self, senders, receivers, sizes, copies, protocol: str) -> None:
        """Scatter-add checked int64 columns into the per-node table.  Under
        a budget only the transmissions up to the first that crosses it are
        charged, and then :class:`BudgetExceededError` is raised."""
        if senders.size == 0:
            # An empty batch must leave no trace, matching charge_batch.
            return
        self._admit(
            int(min(senders.min(), receivers.min())),
            int(max(senders.max(), receivers.max())),
        )
        if copies is not None:
            live = copies > 0
            if not bool(live.all()):
                senders, receivers = senders[live], receivers[live]
                sizes, copies = sizes[live], copies[live]
            if senders.size == 0:
                return
        crossed = False
        if self._budget is not None:
            if copies is not None:
                senders, receivers, sizes = (
                    np.repeat(column, copies) for column in (senders, receivers, sizes)
                )
                copies = None
            crossing = self._first_crossing(senders, receivers, sizes)
            if crossing is not None:
                crossed = True
                stop = crossing + 1
                senders, receivers, sizes = senders[:stop], receivers[:stop], sizes[:stop]
        if copies is None:
            weights = sizes
            messages = int(senders.size)
            np.add.at(self._msgs_sent, senders, 1)
            np.add.at(self._msgs_received, receivers, 1)
        else:
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
        if crossed:
            self._check_budget(int(senders[-1]))
            self._check_budget(int(receivers[-1]))

    def _first_crossing(self, senders, receivers, sizes) -> int | None:
        """Index of the first transmission after which its sender or its
        receiver holds more than the budget, or ``None``.

        A transmission is two events, sender then receiver.  Sorted stably
        by node, a running sum within each node's run plus its column total
        is the node's total after each event (a self-pair's second event
        counts both adds), so the first event over the budget, halved, is
        where one :meth:`charge` per transmission would raise.
        """
        ends = np.column_stack((senders, receivers)).ravel()
        bits = np.repeat(sizes, 2)
        order = np.argsort(ends, kind="stable")
        ranked, ranked_bits = ends[order], bits[order]
        running = np.cumsum(ranked_bits)
        run_start = np.r_[True, ranked[1:] != ranked[:-1]]
        start = np.maximum.accumulate(np.where(run_start, np.arange(ranked.size), 0))
        after = np.empty_like(running)
        after[order] = (
            running - running[start] + ranked_bits[start] + self._node_totals()[ranked]
        )
        over = np.flatnonzero(after > self._budget)
        return int(over[0]) // 2 if over.size else None

    def advance_round(self, count: int = 1) -> None:
        """Record ``count`` additional synchronous communication rounds."""
        require_non_negative(count, "count")
        self._rounds += count

    # ------------------------------------------------------------------ #
    # Interval metering (marks)
    # ------------------------------------------------------------------ #
    def mark(self) -> LedgerMark:
        """Start a metering interval and return its mark."""
        mark = LedgerMark(self._total_bits, self._messages, self._rounds, self._node_totals())
        self._marks.append(mark)
        return mark

    def release(self, mark: LedgerMark) -> None:
        """Stop rebasing ``mark`` on :meth:`reset` (idempotent); its deltas
        stay readable."""
        if mark in self._marks:
            self._marks.remove(mark)

    def _baseline(self, mark: LedgerMark):
        """``mark``'s totals snapshot, padded with zeros to any rows grown
        since it was taken."""
        grown = self._num_nodes - mark.node_total.size
        if grown:
            mark.node_total = np.concatenate((mark.node_total, np.zeros(grown, np.int64)))
        return mark.node_total

    def node_delta_array(self, mark: LedgerMark):
        """Per-node bits added since ``mark`` as one dense ``int64`` array
        indexed by node id (the attribution sink's fold input)."""
        return self._node_totals() - self._baseline(mark)

    def node_deltas_since(self, mark: LedgerMark) -> dict[int, int]:
        """Per-node bits added since ``mark`` (nodes with a non-zero delta)."""
        deltas = self.node_delta_array(mark)
        touched = np.flatnonzero(deltas)
        return dict(zip(touched.tolist(), deltas[touched].tolist()))

    def max_node_delta_since(self, mark: LedgerMark) -> int:
        """Largest single-node bit delta since ``mark`` (0 if none),
        subtracted into a reused scratch buffer."""
        if not self._num_nodes:
            return 0
        scratch = self._delta_scratch
        if scratch is None or scratch.size != self._num_nodes:
            scratch = self._delta_scratch = np.empty(self._num_nodes, dtype=np.int64)
        np.subtract(self._node_totals(), self._baseline(mark), out=scratch)
        return max(0, int(scratch.max()))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def traffic(self, node: int) -> NodeTraffic:
        """A copy of ``node``'s counters (zeros if it never communicated; a
        read never adds ``node`` to :meth:`nodes`).  An id the ledger cannot
        hold raises: numpy would count a negative id from the end."""
        node = require_integer(node, "node_id")
        if not self._sized and node >= self._num_nodes:
            return NodeTraffic()
        self._admit(node, node)  # a read never grows the columns
        return NodeTraffic(*(int(column[node]) for column in self._table))

    def node_bits(self, node: int) -> int:
        """Bits sent plus received by ``node``."""
        return self.traffic(node).bits_total

    def _touched(self):
        return np.flatnonzero(self._msgs_sent + self._msgs_received)

    @property
    def max_node_bits(self) -> int:
        """The paper's communication-complexity measure: max over nodes."""
        touched = self._touched()
        return int(self._node_totals()[touched].max()) if touched.size else 0

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
        """Iterate, in id order, over nodes that sent or received a message."""
        return iter(self._touched().tolist())

    def counters_snapshot(self) -> LedgerSnapshot:
        """Scalar counters and per-protocol breakdown only — O(#protocols);
        ``per_node_bits`` is empty and ``max_node_bits`` 0.  The streaming
        engines diff one per epoch."""
        return LedgerSnapshot(
            per_node_bits={},
            total_bits=self._total_bits,
            max_node_bits=0,
            messages=self._messages,
            rounds=self._rounds,
            per_protocol_bits=dict(self._per_protocol_bits),
        )

    def snapshot(self) -> LedgerSnapshot:
        """An immutable summary of the current counters, per node included
        (O(network size); :meth:`mark` meters one protocol invocation)."""
        touched = self._touched()
        bits = self._node_totals()[touched]
        return LedgerSnapshot(
            per_node_bits=dict(zip(touched.tolist(), bits.tolist())),
            total_bits=self._total_bits,
            max_node_bits=int(bits.max()) if touched.size else 0,
            messages=self._messages,
            rounds=self._rounds,
            per_protocol_bits=dict(self._per_protocol_bits),
        )

    def reset(self) -> None:
        """Clear all counters (size and budget configuration are retained).

        Active marks are rebased onto the cleared ledger, so a metering
        interval spanning a reset measures from the reset point onward.
        """
        self._table[:] = 0
        self._totals_dirty = True
        self._per_protocol_bits.clear()
        self._messages = self._rounds = self._total_bits = 0
        for mark in self._marks:
            mark.rebase(total_bits=0, messages=0, rounds=0)

    def merge(self, other: "CommunicationLedger") -> None:
        """Accumulate the counters of another ledger into this one.  Its
        traffic must lie in this ledger's id space (an unsized ledger grows
        to hold it); active marks see the merged traffic as a delta."""
        touched = other._touched()
        if touched.size:
            self._admit(int(touched[0]), int(touched[-1]))
        span = min(other._num_nodes, self._num_nodes)
        self._table[:, :span] += other._table[:, :span]
        self._totals_dirty = True
        for protocol, bits in other._per_protocol_bits.items():
            self._per_protocol_bits[protocol] += bits
        self._messages += other._messages
        self._rounds += other._rounds
        self._total_bits += other._total_bits

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"CommunicationLedger(nodes={self._num_nodes}, total_bits={self._total_bits}, "
            f"messages={self._messages}, rounds={self._rounds})"
        )


#: The old name of the column ledger.  Only ``benchmarks/perf/layers.py``
#: still imports it; the benchmark change that collapses the execution paths
#: (ROADMAP, collapse step 1) drops that import and this alias.
ArrayLedger = CommunicationLedger
