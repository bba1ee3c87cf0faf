"""Greenwald–Khanna ε-approximate quantile summary.

Greenwald and Khanna's sensor-network algorithm (cited by the paper as the
concurrent result [4]) aggregates per-node quantile summaries up the spanning
tree; any order statistic can then be answered from the root's summary with
rank error at most εN.  This module implements the summary itself: insertion,
pruning to the O((1/ε) log εN) size bound, merging (errors add), and quantile
queries.  The distributed baseline in :mod:`repro.baselines.gk_median` ships
these summaries over the tree, which is what costs Θ((log N)³)–Θ((log N)⁴)
bits per node and provides the comparison line for experiment E8.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from repro._util.bits import fixed_width_bits
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class _Tuple:
    """A GK summary tuple (value, g, delta)."""

    value: int
    g: int
    delta: int


@dataclass
class GKSummary:
    """An ε-approximate quantile summary over integer values."""

    epsilon: float
    count: int = 0
    tuples: list[_Tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must lie in (0, 1), got {self.epsilon}"
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(cls, values: Iterable[int], epsilon: float) -> "GKSummary":
        summary = cls(epsilon=epsilon)
        for value in values:
            summary.insert(value)
        summary.compress()
        return summary

    @property
    def capacity(self) -> int:
        """Maximum number of stored tuples: O(1/ε)."""
        return max(4, math.ceil(3.0 / self.epsilon))

    def insert(self, value: int) -> None:
        """Insert one observation."""
        new_tuple = _Tuple(value=value, g=1, delta=0)
        index = bisect_right([t.value for t in self.tuples], value)
        self.tuples.insert(index, new_tuple)
        self.count += 1
        # Periodic compression keeps the summary small without paying the
        # pruning cost on every insert.
        if len(self.tuples) > 2 * self.capacity:
            self.compress()

    def compress(self) -> None:
        """Greedily merge the lightest adjacent tuples until the size bound holds.

        Merging an adjacent pair of total weight ``w`` perturbs ranks by at
        most ``w``; merging the lightest pairs first and capping the summary at
        ``O(1/ε)`` tuples keeps the cumulative rank error of a query at
        ``O(ε · count)``, which is the property the GK baseline needs.  (This
        is the capacity-bounded variant of the GK compress operation — simpler
        than the original band structure but with the same asymptotic size.)
        """
        capacity = self.capacity
        while len(self.tuples) > capacity and len(self.tuples) > 2:
            lightest_index = 1
            lightest_weight = None
            for index in range(1, len(self.tuples)):
                weight = self.tuples[index - 1].g + self.tuples[index].g
                if lightest_weight is None or weight < lightest_weight:
                    lightest_weight = weight
                    lightest_index = index
            left = self.tuples[lightest_index - 1]
            right = self.tuples[lightest_index]
            merged = _Tuple(
                value=right.value,
                g=left.g + right.g,
                delta=max(left.delta, right.delta),
            )
            self.tuples[lightest_index - 1 : lightest_index + 1] = [merged]

    # ------------------------------------------------------------------ #
    # Combination and queries
    # ------------------------------------------------------------------ #
    def merge(self, other: "GKSummary") -> "GKSummary":
        """Merge two summaries; the resulting error is the larger ε of the two.

        The standard merge concatenates the tuple lists in value order, keeps
        g values and inflates deltas; compressing afterwards restores the size
        bound.  Rank error grows to ε₁ + ε₂ in the worst case, which the
        distributed baseline accounts for by building per-node summaries with
        ε / depth.
        """
        merged = GKSummary(epsilon=max(self.epsilon, other.epsilon))
        merged.count = self.count + other.count
        merged.tuples = sorted(
            list(self.tuples) + list(other.tuples), key=lambda t: t.value
        )
        merged.compress()
        return merged

    def query(self, quantile: float) -> int:
        """Return a value whose rank is within εN of ``quantile * N``."""
        if not 0.0 <= quantile <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0, 1], got {quantile}")
        if not self.tuples:
            raise ConfigurationError("cannot query an empty summary")
        target = quantile * self.count
        cumulative = 0
        for t in self.tuples:
            cumulative += t.g
            if cumulative >= target:
                return t.value
        return self.tuples[-1].value

    def median(self) -> int:
        """Convenience wrapper for the 0.5 quantile."""
        return self.query(0.5)

    @property
    def size(self) -> int:
        """Number of stored tuples."""
        return len(self.tuples)

    def serialized_bits(self, max_value: int, max_count: int) -> int:
        """Bits to transmit the summary over a tree edge."""
        per_tuple = (
            fixed_width_bits(max_value)
            + fixed_width_bits(max_count)
            + fixed_width_bits(max_count)
        )
        return len(self.tuples) * per_tuple + fixed_width_bits(max_count)
