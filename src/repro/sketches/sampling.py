"""Mergeable uniform sampling.

Nath et al. (cited in the paper's "concurrent results" discussion) approximate
the median by drawing a uniform sample of the items with an order- and
duplicate-insensitive synopsis and returning the sample median.  The sample
must be mergeable bottom-up; the standard construction tags every item with a
uniform hash-derived priority and keeps the ``k`` smallest priorities — the
result is a uniform sample without replacement regardless of how partial
samples are combined, and duplicates of the same (node, item) pair collapse.

Per the paper's analysis, each sampled item costs ``Ω(log N)`` bits to ship,
so the per-node cost of this baseline is ``Ω(k log N)`` — the comparison line
for experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.bits import fixed_width_bits
from repro._util.validation import require_positive
from repro.exceptions import ConfigurationError
from repro.sketches.hashing import hash_to_unit


@dataclass(frozen=True)
class _Tagged:
    """An item tagged with its sampling priority and origin."""

    priority: float
    value: int
    origin: int


@dataclass
class MergeableSample:
    """A bottom-k uniform sample of capacity ``capacity``."""

    capacity: int
    salt: int = 0
    entries: list[_Tagged] = field(default_factory=list)
    observed: int = 0

    def __post_init__(self) -> None:
        require_positive(self.capacity, "capacity")

    def add(self, value: int, origin: int) -> None:
        """Offer one item held by node ``origin`` to the sample."""
        priority = hash_to_unit(origin * 2654435761 + value, salt=self.salt)
        self.entries.append(_Tagged(priority=priority, value=value, origin=origin))
        self.observed += 1
        self._prune()

    def _prune(self) -> None:
        if len(self.entries) > self.capacity:
            self.entries.sort(key=lambda entry: entry.priority)
            del self.entries[self.capacity :]

    def merge(self, other: "MergeableSample") -> "MergeableSample":
        """Combine two partial samples (duplicates of the same origin collapse)."""
        if other.capacity != self.capacity or other.salt != self.salt:
            raise ConfigurationError("cannot merge incompatible samples")
        merged = MergeableSample(capacity=self.capacity, salt=self.salt)
        seen: dict[tuple[int, int, float], _Tagged] = {}
        for entry in list(self.entries) + list(other.entries):
            seen[(entry.origin, entry.value, entry.priority)] = entry
        merged.entries = list(seen.values())
        merged.observed = self.observed + other.observed
        merged._prune()
        return merged

    def values(self) -> list[int]:
        """The sampled values, in priority order."""
        return [entry.value for entry in sorted(self.entries, key=lambda e: e.priority)]

    def sample_median(self) -> int:
        """Median of the sampled values (the Nath et al. median estimate)."""
        values = sorted(self.values())
        if not values:
            raise ConfigurationError("cannot take the median of an empty sample")
        return values[(len(values) - 1) // 2]

    @property
    def size(self) -> int:
        return len(self.entries)

    def serialized_bits(self, max_value: int, max_nodes: int) -> int:
        """Bits to transmit: each entry ships a value, an origin id and a priority."""
        priority_bits = 32  # fixed-point priority, enough to break ties w.h.p.
        per_entry = fixed_width_bits(max_value) + fixed_width_bits(max_nodes) + priority_bits
        return self.size * per_entry + fixed_width_bits(max(self.observed, 1))
