"""Deterministic k-order-statistic computation (Fig. 1 + Section 3.4).

The algorithm binary-searches the value range: it first learns ``min``,
``max`` and ``N`` with the primitive protocols of Fact 2.1, then repeatedly
asks ``COUNTP(X, "< y")`` at the midpoint of the surviving interval.  After
``ceil(log(max - min)) + 1`` iterations the interval has shrunk to width one
and the order statistic is pinned down, possibly needing one final probe to
disambiguate the two neighbouring integers (Line 4.1 of Fig. 1).

Per-probe cost is ``O(log N)`` bits per node (predicate description plus one
partial count on each tree edge), and there are ``O(log N)`` probes, giving
the ``O((log N)^2)`` bound of Theorem 3.2.

The root picks each probe from the last count alone, and the count below
``y`` is how many tree items lie below ``y``.  Where no send can fail
(:func:`~repro.protocols.tally.defers_sweeps`) the host therefore decides
every probe from the item column first, then computes all the probes'
subtree counts in one pass over the tree's preorder, and charges their
sweeps together with the MIN / MAX / COUNT prelude's.  The per-node cost of
Theorem 3.2 is unchanged, bit for bit, and so are the rounds: only the
order in which the host computes the sweeps changes.  Elsewhere each probe
runs COUNTP on the spot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro._util.bits import varint_bits_sum
from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.node import INT64_MAX
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import CountProtocol, MaxProtocol, MinProtocol
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.countp import CountPredicateProtocol
from repro.protocols.predicates import LessThanPredicate
from repro.protocols.tally import SweepTally, sweep_tally


@dataclass(frozen=True)
class OrderStatisticOutcome:
    """Root-side outcome of a deterministic order-statistic query."""

    value: int
    k: float
    n: int
    minimum: int
    maximum: int
    probes: int
    binary_search_iterations: int


def run_binary_search_selection(
    network: SensorNetwork,
    target_rank: Callable[[int], float],
    domain_max: int | None = None,
) -> ProtocolResult:
    """Shared implementation of Fig. 1, parameterised by the target rank.

    ``target_rank(n)`` maps the exact item count to the rank ``k`` that is
    searched for — ``n / 2`` for the median, a constant for a generic k-order
    statistic.  Returns a :class:`ProtocolResult` whose value is an
    :class:`OrderStatisticOutcome`.

    Where the network defers sweeps (:mod:`repro.protocols.tally`) every
    probe's answer is counted on the column of the tree nodes' items, and
    the sweeps of the MIN / MAX / COUNT prelude and of every COUNTP probe
    (:func:`_tally_probes`) are charged together once the search is over;
    elsewhere each runs on the spot.
    """
    with MeteredRun(network) as metered, sweep_tally(network) as tally:
        # Line 1: primitive protocols for min, max and count.
        minimum = MinProtocol(domain_max=domain_max).value(network, tally=tally)
        maximum = MaxProtocol(domain_max=domain_max).value(network, tally=tally)
        n = CountProtocol().value(network, tally)
        if n == 0:
            raise EmptyNetworkError("cannot select from an empty input multiset")
        k = target_rank(n)
        if k <= 0 or k > n:
            raise ConfigurationError(f"target rank {k} outside (0, {n}]")

        predicate_max = domain_max if domain_max is not None else maximum
        thresholds: list[float] = []
        if tally is not None:
            tree_items, held = _preorder_items(network)

        def count_below(threshold: float) -> int:
            thresholds.append(threshold)
            if tally is not None:
                # The items below t are the items at most ceil(t) - 1.
                return int(np.count_nonzero(tree_items <= _last_below(threshold)))
            predicate = LessThanPredicate(threshold=threshold, domain_max=predicate_max)
            return CountPredicateProtocol(predicate).run(network).value

        value, iterations = _binary_search(minimum, maximum, k, count_below)
        if tally is not None and thresholds:
            _tally_probes(tally, network, thresholds, predicate_max, tree_items, held)
        outcome = OrderStatisticOutcome(
            value=value,
            k=k,
            n=n,
            minimum=minimum,
            maximum=maximum,
            probes=len(thresholds),
            binary_search_iterations=iterations,
        )
    return metered.result(outcome)


def _binary_search(
    minimum: int, maximum: int, k: float, count_below: Callable[[float], int]
) -> tuple[int, int]:
    """Lines 2-4 of Fig. 1: ``(value, iterations)``, asking
    ``count_below(y)`` for the number of items below each probe ``y``."""
    if maximum == minimum:
        # Degenerate range: every item has the same value, which is the
        # k-order statistic for every valid k.
        return minimum, 0

    # Line 2: start in the middle of the value range, with a radius that
    # covers the whole range.
    spread = maximum - minimum
    y = (maximum + minimum) / 2.0
    z = float(1 << max(0, (spread - 1).bit_length() - 1)) if spread > 1 else 0.5

    # Line 3: binary search on the value range.
    iterations = 0
    while z > 0.5:
        iterations += 1
        if count_below(y) < k:
            y += z / 2.0
        else:
            y -= z / 2.0
        z /= 2.0

    # Line 4: resolve the final half-integer ambiguity.
    if float(y).is_integer():
        return int(y), iterations
    upper = int(y) + 1
    if count_below(float(upper)) < k:
        return upper, iterations
    return int(y), iterations


#: Cells (probes x tree items) in one block of :func:`_tally_probes`' pass:
#: every array of a block stays at 64 KiB or less.  Larger ones are mapped
#: and unmapped by the allocator, and doing so raised ``oneshot_paper``'s
#: peak RSS (a (21, 1,024) block: +0.6 MiB).
_PASS_CELLS = 1 << 13


def _last_below(threshold: float) -> int:
    """The largest item below ``threshold``: ``ceil(threshold) - 1``,
    clamped into ``[-1, 2**63 - 1]`` as ``LessThanPredicate.mask`` clamps it."""
    return min(max(math.ceil(threshold) - 1, -1), INT64_MAX)


def _preorder_items(network: SensorNetwork):
    """``(values, held)``: the tree nodes' items in the tree's preorder, and
    how many of them come before each preorder position (``n + 1``
    entries), so that a subtree's items are one span of ``values``."""
    items = network.item_columns
    rows = network.tree_rows[network.flat_tree.preorder[0]]
    held = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(items.lengths[rows], out=held[1:])
    return items.values[items.slots(rows)], held


def _tally_probes(
    tally: SweepTally,
    network: SensorNetwork,
    thresholds: list[float],
    predicate_max: int,
    tree_items,
    held,
) -> None:
    """Add the COUNTP sweeps of every probe to ``tally``.

    Probe ``p`` broadcasts ``LessThanPredicate(thresholds[p])`` down every
    tree link, and each node sends its subtree's count below the threshold
    up, as a varint.  One running count of ``tree_items`` (preorder, from
    :func:`_preorder_items`) per probe gives every subtree's count as a
    difference over its span; the sizes are summed per link.
    """
    flat = network.flat_tree
    _, start, size = flat.preorder
    senders = flat.senders
    low = held[start[senders]]
    high = held[start[senders] + size[senders]]
    bounds = np.array([_last_below(threshold) for threshold in thresholds], dtype=np.int64)
    # Row i of ``running`` counts, per probe, the items before preorder item
    # i; a count never passes the item total, so int32 holds it.
    dtype = np.int32 if tree_items.size < 1 << 31 else np.int64
    up_bits = 0
    step = max(1, _PASS_CELLS // (tree_items.size + 1))
    for first in range(0, bounds.size, step):
        block = bounds[first : first + step]
        running = np.zeros((tree_items.size + 1, block.size), dtype=dtype)
        np.cumsum(tree_items[:, None] <= block, axis=0, out=running[1:])
        counts = running[high]
        counts -= running[low]
        up_bits = up_bits + varint_bits_sum(counts, axis=1)
    probes = len(thresholds)
    tally.down(
        "COUNTP",
        sum(
            LessThanPredicate(threshold, domain_max=predicate_max).encoded_bits()
            for threshold in thresholds
        ),
        probes,
    )
    tally.up("COUNTP", up_bits, probes)


class DeterministicOrderStatisticProtocol:
    """Exact k-order statistic by binary search over the value range.

    ``k`` may be given as an absolute rank (``k=25``) or as a fraction of the
    item count (``quantile=0.25``); exactly one must be supplied.
    """

    def __init__(
        self,
        k: float | None = None,
        quantile: float | None = None,
        domain_max: int | None = None,
    ) -> None:
        if (k is None) == (quantile is None):
            raise ConfigurationError("exactly one of k and quantile must be given")
        if quantile is not None and not 0.0 < quantile <= 1.0:
            raise ConfigurationError(f"quantile must lie in (0, 1], got {quantile}")
        if k is not None and k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        self.k = k
        self.quantile = quantile
        self._domain_max = domain_max

    def run(self, network: SensorNetwork) -> ProtocolResult:
        def target(n: int) -> float:
            if self.k is not None:
                return float(self.k)
            return self.quantile * n

        return run_binary_search_selection(network, target, domain_max=self._domain_max)
