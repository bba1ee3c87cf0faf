"""The retired dict ledger, kept verbatim as the reference implementation.

Before the column ledger became the only ledger, ``repro.network.accounting``
held two classes behind one interface: this dict-backed
``CommunicationLedger`` (one ``NodeTraffic`` record per touched node, marks
that record per-node baselines lazily on first touch) and the numpy columns
that replaced it.  The code below is that dict class, its ``LedgerMark`` and
helpers, unchanged.  It is not served by ``repro``: the test suite holds the
one ledger to it (``tests/test_ledger_oracle.py``), and the differential
oracle runs its per-edge reference on it (``tests/test_oracle.py``), the way
the oracle keeps the per-edge path as the specification of every other.

``RetiredDictFolds`` is the matching reference for the attribution sink: the
dict folds ``CostAttribution`` ran on a dict ledger, so a reference twin on
this ledger can still be traced.

Import as ``from ledger_oracle import DictLedger``.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Iterator, Sequence

import numpy as np

from repro._util.validation import require_non_negative
from repro.exceptions import BudgetExceededError
from repro.network.accounting import LedgerSnapshot, NodeTraffic
from repro.telemetry.attribution import (
    BINCOUNT_LIMIT,
    QUANTILE_FRACTIONS,
    CostAttribution,
    EpochAttribution,
    _hotspot_order,
)


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
        """Return the traffic record for ``node`` (zeros if it never
        communicated; a read never adds ``node`` to :meth:`nodes`)."""
        traffic = self._per_node.get(node)
        return NodeTraffic() if traffic is None else traffic

    def node_bits(self, node: int) -> int:
        """Bits sent plus received by ``node``."""
        return self.traffic(node).bits_total

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


#: The dict ledger under the name its users give it beside the one ledger.
DictLedger = CommunicationLedger


# --------------------------------------------------------------------------- #
# The attribution oracle: the two dict folds the single fold replaced (the
# heap/sort branch below VECTOR_DICT_FOLD_MIN touched nodes, the numpy branch
# at or above it), kept verbatim but for the sketch regime, which is gone;
# the helpers they share with the array fold are inherited.  ``observe``
# folds a dict ledger's deltas, as the sink did.
# --------------------------------------------------------------------------- #
VECTOR_DICT_FOLD_MIN = 4096


class RetiredDictFolds(CostAttribution):
    _cumulative_dict: dict[int, int] | None = None

    def observe(self, epoch: int, ledger, mark):
        self._fold_dict(epoch, ledger.node_deltas_since(mark))
        return None

    def _fold_dict(self, epoch: int, deltas: dict[int, int]) -> None:
        positive = {node: bits for node, bits in deltas.items() if bits > 0}
        if self._cumulative_dict is None:
            self._cumulative_dict = {}
            if self.cumulative is None:
                self.cumulative = self._cumulative_dict
        cumulative = self._cumulative_dict
        for node, bits in positive.items():
            cumulative[node] = cumulative.get(node, 0) + bits
        if len(positive) >= VECTOR_DICT_FOLD_MIN:
            # Large dict folds (the batched pipeline at scale): Python
            # sorts/heaps over 10^5 items cost more than the epoch's own
            # bookkeeping, so lift the stats into numpy.
            self._append_dict_stats_vectorized(epoch, positive)
            return
        hotspots = heapq.nsmallest(self.top_k, positive.items(), key=_hotspot_order)
        self.epochs.append(
            EpochAttribution(
                epoch=epoch,
                node_bits=sum(positive.values()),
                touched=len(positive),
                hotspots=hotspots,
                quantiles=self._exact_quantiles(sorted(positive.values())),
            )
        )

    def _append_dict_stats_vectorized(self, epoch: int, positive: dict[int, int]) -> None:
        """Numpy stats for a large dict fold (same results, no big sorts)."""
        count = len(positive)
        nodes = np.fromiter(positive.keys(), dtype=np.int64, count=count)
        bits = np.fromiter(positive.values(), dtype=np.int64, count=count)
        dmax = int(bits.max())
        if 0 < dmax <= BINCOUNT_LIMIT:
            touched, node_bits, quantiles, cutoff, k = (
                self._stats_from_bincount(bits, dmax)
            )
        else:
            node_bits = int(bits.sum())
            k = min(self.top_k, count)
            indices = sorted(
                {
                    min(count - 1, int(fraction * count))
                    for fraction in QUANTILE_FRACTIONS
                }
                | {count - k}
            )
            selected = np.partition(bits, indices)
            cutoff = int(selected[count - k])
            quantiles = {
                f"p{int(fraction * 100)}": int(
                    selected[min(count - 1, int(fraction * count))]
                )
                for fraction in QUANTILE_FRACTIONS
            }
            quantiles["max"] = dmax
        chosen = np.nonzero(bits > cutoff)[0]
        if chosen.size < k:
            # The dict is in first-touched order; the lowest ids win.
            ties = np.nonzero(bits == cutoff)[0]
            wanted = k - chosen.size
            if ties.size > wanted:
                ties = ties[np.argpartition(nodes[ties], wanted - 1)[:wanted]]
            chosen = np.concatenate([chosen, ties])
        hotspots = sorted(
            zip(nodes[chosen].tolist(), bits[chosen].tolist()), key=_hotspot_order
        )
        self.epochs.append(
            EpochAttribution(
                epoch=epoch,
                node_bits=node_bits,
                touched=count,
                hotspots=hotspots,
                quantiles=quantiles,
            )
        )

    @staticmethod
    def _exact_quantiles(ordered) -> dict[str, int]:
        """Quantiles of a sorted sequence / array of positive deltas."""
        size = len(ordered)
        if not size:
            return {"p50": 0, "p90": 0, "p99": 0, "max": 0}
        quantiles = {
            f"p{int(fraction * 100)}": int(
                ordered[min(size - 1, int(fraction * size))]
            )
            for fraction in QUANTILE_FRACTIONS
        }
        quantiles["max"] = int(ordered[size - 1])
        return quantiles
