"""q-digest quantile sketch.

The q-digest (Shrivastava et al., SenSys 2004) is the other standard
sensor-network quantile summary of the paper's era: a set of dyadic ranges
over the value domain ``[0, 2^k)`` with counts, compressed so that at most
``O(k / compression)`` ranges survive.  Summaries merge by adding counts of
identical ranges and recompressing, which makes them convenient for in-network
aggregation; the rank error after aggregation is ``O(log(max value) / k)`` of
the total count.

It is used by :mod:`repro.baselines.qdigest_median` as a second
summary-shipping baseline alongside Greenwald–Khanna.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro._util.bits import fixed_width_bits
from repro._util.validation import require_positive
from repro.exceptions import ConfigurationError


def dyadic_levels(universe_size: int) -> int:
    """Depth of the full binary tree over ``[0, universe_size)`` rounded up to 2^k.

    Integer arithmetic on purpose: ``ceil(log2(2**60 + 1))`` is 60 in floats,
    which leaves the largest legal values outside the tree.
    """
    return max(1, (universe_size - 1).bit_length())


@dataclass
class QDigest:
    """A q-digest over the integer domain ``[0, universe_size)``.

    Nodes of the implicit binary tree over the domain are identified by the
    usual heap numbering: node 1 covers the whole domain, node ``2i`` and
    ``2i + 1`` cover the two halves of node ``i``'s range.  ``counts`` maps
    node id to the count stored there.
    """

    universe_size: int
    compression: int = 64
    counts: dict[int, int] = field(default_factory=dict)
    total: int = 0

    def __post_init__(self) -> None:
        require_positive(self.universe_size, "universe_size")
        require_positive(self.compression, "compression")
        # Round the universe up to a power of two so the dyadic tree is full.
        self._levels = dyadic_levels(self.universe_size)
        self._padded_universe = 1 << self._levels

    def _derived(self, compression: int, counts: dict[int, int], total: int) -> "QDigest":
        """A digest over this one's (already validated) universe.

        Skips ``__post_init__``: merging re-derives nothing a constructor
        call would have to check again.
        """
        digest = QDigest.__new__(QDigest)
        digest.universe_size = self.universe_size
        digest.compression = compression
        digest.counts = counts
        digest.total = total
        digest._levels = self._levels
        digest._padded_universe = self._padded_universe
        return digest

    # ------------------------------------------------------------------ #
    # Tree-node helpers
    # ------------------------------------------------------------------ #
    def _leaf_id(self, value: int) -> int:
        if not 0 <= value < self.universe_size:
            raise ConfigurationError(
                f"value {value} outside universe [0, {self.universe_size})"
            )
        return self._padded_universe + value

    def _node_range(self, node_id: int) -> tuple[int, int]:
        """Closed-open value range [lo, hi) covered by a tree node."""
        level = node_id.bit_length() - 1
        span = self._padded_universe >> level
        offset = (node_id - (1 << level)) * span
        return offset, offset + span

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(
        cls, values: Iterable[int], universe_size: int, compression: int = 64
    ) -> "QDigest":
        digest = cls(universe_size=universe_size, compression=compression)
        for value in values:
            digest.add(value)
        digest.compress()
        return digest

    def add(self, value: int, count: int = 1) -> None:
        """Add ``count`` occurrences of ``value``."""
        require_positive(count, "count")
        leaf = self._leaf_id(value)
        self.counts[leaf] = self.counts.get(leaf, 0) + count
        self.total += count

    def compress(self) -> None:
        """Push small counts upward so at most O(compression · log U) nodes remain.

        One pass buckets the stored ids by tree level; levels are then folded
        deepest first, each over its own bucket, and a parent created while a
        level is folded joins the next bucket up — O(size + levels) work, with
        the visit order (and so the dict order of ``counts``) of a full
        rescan per level.
        """
        if self.total == 0:
            return
        threshold = self.total / self.compression
        counts = self.counts
        get = counts.get
        pop = counts.pop
        levels = self._levels
        # buckets[level] lists the stored ids of that level in dict order;
        # ids outside the tree (level 0, or below the leaves) are never folded.
        buckets: list[list[int]] = [[] for _ in range(levels + 1)]
        limit = 2 << levels
        for node_id in counts:
            if 1 < node_id < limit:
                buckets[node_id.bit_length() - 1].append(node_id)
        for level in range(levels, 0, -1):
            created = buckets[level - 1].append
            for node_id in buckets[level]:
                count = get(node_id)
                if count is None:
                    # Removed since the buckets were filled (folded as its
                    # sibling's partner): the pair's decision is already taken.
                    continue
                sibling = node_id ^ 1
                parent = node_id >> 1
                parent_count = get(parent)
                merged = count + get(sibling, 0) + (parent_count or 0)
                if merged < threshold:
                    del counts[node_id]
                    pop(sibling, None)
                    if merged:
                        counts[parent] = merged
                        if parent_count is None:
                            created(parent)
                    else:
                        pop(parent, None)

    # ------------------------------------------------------------------ #
    # Combination and queries
    # ------------------------------------------------------------------ #
    def merge(self, other: "QDigest") -> "QDigest":
        """Add counts node-wise and recompress."""
        if other.universe_size != self.universe_size:
            raise ConfigurationError("cannot merge digests over different universes")
        counts = dict(self.counts)
        get = counts.get
        for node_id, count in other.counts.items():
            counts[node_id] = get(node_id, 0) + count
        merged = self._derived(
            max(self.compression, other.compression), counts, self.total + other.total
        )
        merged.compress()
        return merged

    def quantile(self, fraction: float) -> int:
        """Return a value whose rank approximates ``fraction * total``."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must lie in [0, 1], got {fraction}")
        if self.total == 0:
            raise ConfigurationError("cannot query an empty digest")
        target = fraction * self.total
        # Sort stored nodes by the upper end of their range (post-order style),
        # accumulate counts and report the node whose range crosses the target.
        ordered = sorted(
            self.counts.items(), key=lambda item: (self._node_range(item[0])[1], item[0])
        )
        cumulative = 0
        for node_id, count in ordered:
            cumulative += count
            if cumulative >= target:
                low, high = self._node_range(node_id)
                return min(high - 1, self.universe_size - 1)
        last_low, last_high = self._node_range(ordered[-1][0])
        return min(last_high - 1, self.universe_size - 1)

    def median(self) -> int:
        return self.quantile(0.5)

    # ------------------------------------------------------------------ #
    # Delta encoding (streaming)
    # ------------------------------------------------------------------ #
    def count_distance(self, other: "QDigest") -> int:
        """L1 distance between the stored counts of two digests.

        Summing ``|c_self(v) − c_other(v)|`` over the union of stored dyadic
        nodes upper-bounds how much any rank estimate can move when one digest
        is substituted for the other, which is exactly the quantity the
        streaming engine's ε-suppression rule must bound.
        """
        if other.universe_size != self.universe_size:
            raise ConfigurationError(
                "cannot compare digests over different universes"
            )
        mine, theirs = self.counts, other.counts
        get = theirs.get
        distance = 0
        for key, count in mine.items():
            distance += abs(count - get(key, 0))
        for key, count in theirs.items():
            if key not in mine:
                distance += abs(count)
        return distance

    def changed_entries(self, other: "QDigest") -> int:
        """Number of dyadic nodes whose stored count differs from ``other``'s."""
        if other.universe_size != self.universe_size:
            raise ConfigurationError(
                "cannot compare digests over different universes"
            )
        mine, theirs = self.counts, other.counts
        get = theirs.get
        changed = 0
        for key, count in mine.items():
            if count != get(key, 0):
                changed += 1
        for key, count in theirs.items():
            if count and key not in mine:
                changed += 1
        return changed

    def delta_bits(self, previous: "QDigest") -> int:
        """Bits to transmit this digest to a receiver holding ``previous``.

        Only the (node id, new count) pairs that changed are shipped, plus one
        count-sized field carrying the new total; unchanged entries are free.
        This is what makes per-epoch retransmission proportional to *change*
        rather than summary size.
        """
        node_id_bits = fixed_width_bits(2 * self._padded_universe)
        count_bits = fixed_width_bits(max(self.total, previous.total, 1))
        return self.changed_entries(previous) * (node_id_bits + count_bits) + count_bits

    @property
    def size(self) -> int:
        """Number of stored (range, count) pairs."""
        return len(self.counts)

    def serialized_bits(self) -> int:
        """Bits to transmit: each entry is a node id plus a count."""
        node_id_bits = fixed_width_bits(2 * self._padded_universe)
        count_bits = fixed_width_bits(max(self.total, 1))
        return self.size * (node_id_bits + count_bits) + count_bits
