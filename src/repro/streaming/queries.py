"""Standing-query definitions for the continuous-query engine.

A :class:`StandingQuery` is the declarative half of a registered query: it
knows how to turn a node's local items into a summary, how summaries merge,
how to extract the answer at the root, and what approximation the combination
of its summary type and the engine's ε-suppression guarantees.  The engine
(:mod:`repro.streaming.engine`) owns all state and scheduling; queries are
stateless and reusable across engines.

Four query families mirror the paper's aggregate repertoire:

* :class:`CountQuery` — |X|, exact up to the suppression slack;
* :class:`PredicateCountQuery` — COUNTP for a locally-computable predicate
  (Section 3.1's building block, run continuously);
* :class:`QuantileQuery` / :class:`MedianQuery` — rank queries over a
  q-digest, the streaming analogue of the paper's median protocols;
* :class:`DistinctCountQuery` — Section 5's COUNT DISTINCT via LogLog
  sketches, whose duplicate-insensitivity also buys robustness to
  duplicating radios.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

from repro._util.validation import require_positive
from repro.exceptions import ConfigurationError
from repro.sketches.loglog import loglog_relative_sigma
from repro.sketches.qdigest import dyadic_levels
from repro.streaming.summaries import (
    CountSummary,
    DistinctSummary,
    QuantileSummary,
    StreamSummary,
)

# Size of the standing-query announcement the root broadcasts once at
# registration time: an opcode plus a small parameter block.
REGISTRATION_BITS = 16


class StandingQuery(abc.ABC):
    """A continuously-maintained aggregate over the network's items."""

    kind = "QUERY"

    @abc.abstractmethod
    def local_summary(self, items: Sequence[int]) -> StreamSummary:
        """Summarise one node's local items (computed locally, free)."""

    @abc.abstractmethod
    def answer(self, summary: StreamSummary):
        """Extract the query answer from the root's merged summary."""

    def scale(self, summary: StreamSummary) -> float:
        """Magnitude of the current answer, used to size the ε-slack."""
        answer = self.answer(summary)
        return float(answer) if answer is not None else 0.0

    def error_bound(self, epsilon: float, scale: float) -> float:
        """Absolute answer error the engine guarantees at suppression level ε.

        Each suppressing node holds back a change of distance at most
        ``ε · scale / n``; at most ``n`` nodes can be stale at once, so the
        root answer is perturbed by at most ``ε · scale`` (plus any error
        inherent to the summary type, which subclasses add).
        """
        return epsilon * scale


class CountQuery(StandingQuery):
    """Continuously maintain |X|, the number of items in the network."""

    kind = "COUNT"

    def local_summary(self, items: Sequence[int]) -> CountSummary:
        return CountSummary(len(items))

    def answer(self, summary: CountSummary) -> int:
        return summary.count


class PredicateCountQuery(StandingQuery):
    """Continuously maintain COUNTP: the number of items satisfying a predicate.

    The predicate must be locally computable from an item value alone (the
    paper's Section 3.1 requirement); it is announced once at registration
    and evaluated for free at each node.
    """

    kind = "COUNTP"

    def __init__(self, predicate: Callable[[int], bool], description: str = "P") -> None:
        self.predicate = predicate
        self.description = description

    def local_summary(self, items: Sequence[int]) -> CountSummary:
        return CountSummary(sum(1 for item in items if self.predicate(item)))

    def answer(self, summary: CountSummary) -> int:
        return summary.count


class QuantileQuery(StandingQuery):
    """Continuously maintain a quantile of the value multiset via q-digests."""

    kind = "QUANTILE"

    def __init__(
        self, fraction: float, universe_size: int, compression: int = 64
    ) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must lie in [0, 1], got {fraction}"
            )
        require_positive(universe_size, "universe_size")
        require_positive(compression, "compression")
        self.fraction = fraction
        self.universe_size = universe_size
        self.compression = compression

    def local_summary(self, items: Sequence[int]) -> QuantileSummary:
        return QuantileSummary.from_values(
            items, universe_size=self.universe_size, compression=self.compression
        )

    def answer(self, summary: QuantileSummary) -> int | None:
        if summary.total == 0:
            return None
        return summary.digest.quantile(self.fraction)

    def scale(self, summary: QuantileSummary) -> float:
        # The slack is a rank budget, so the scale is the item count, not the
        # quantile value.
        return float(summary.total)

    def digest_rank_error_fraction(self) -> float:
        """Worst-case rank error (fraction of N) of the q-digest itself."""
        return dyadic_levels(self.universe_size) / self.compression

    def error_bound(self, epsilon: float, scale: float) -> float:
        """Total rank error: suppression slack plus digest compression error."""
        return (epsilon + self.digest_rank_error_fraction()) * scale


class MedianQuery(QuantileQuery):
    """The 0.5-quantile — the paper's flagship aggregate, run continuously."""

    kind = "MEDIAN"

    def __init__(self, universe_size: int, compression: int = 64) -> None:
        super().__init__(0.5, universe_size=universe_size, compression=compression)


class DistinctCountQuery(StandingQuery):
    """Continuously maintain COUNT DISTINCT via mergeable LogLog sketches."""

    kind = "DISTINCT"

    def __init__(
        self,
        num_registers: int = 64,
        salt: int = 0,
        max_expected_count: int = 1 << 30,
    ) -> None:
        require_positive(num_registers, "num_registers")
        self.num_registers = num_registers
        self.salt = salt
        self.max_expected_count = max_expected_count

    def local_summary(self, items: Sequence[int]) -> DistinctSummary:
        return DistinctSummary.from_values(
            items,
            num_registers=self.num_registers,
            salt=self.salt,
            max_expected_count=self.max_expected_count,
        )

    def answer(self, summary: DistinctSummary) -> float:
        return summary.sketch.estimate()

    def error_bound(self, epsilon: float, scale: float) -> float:
        """The sketch's 3σ error — register changes are never suppressed.

        :class:`~repro.streaming.summaries.DistinctSummary` reports an
        infinite distance for any register change, so ε plays no role: the
        root sketch always reflects the nodes' current readings exactly.
        """
        del epsilon
        return 3.0 * loglog_relative_sigma(self.num_registers) * scale
