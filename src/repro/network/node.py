"""Sensor node state.

A node holds a multiset of non-negative integer *input items* (Section 2.1 of
the paper).  Most experiments use exactly one item per node, but the model —
and Theorem 5.1's reduction — allows several.  The network owns them all as
one :class:`ItemColumns` pair, so a protocol computes every node's local step
at once; :class:`SensorNode` is a frozen view of one node.

The per-node state the paper charges against *space complexity* (the active
flag and scaled values of Algorithm ``APX_MEDIAN2``) is columns the protocol
builds and drops within one run (:mod:`repro.core.apx_median2`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

#: The largest item an int64 column holds.
INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class SensorNode:
    """A read-only view of one sensor: its id, its items and whether it is
    the root, as they were when the view was built."""

    node_id: int
    items: tuple[int, ...]
    is_root: bool


def run_slots(starts, counts):
    """The slots of runs of ``counts[i]`` items from ``starts[i]``, in order."""
    slots = np.repeat(starts - np.cumsum(counts) + counts, counts)
    slots += np.arange(slots.size)
    return slots


class ItemColumns(NamedTuple):
    """Items of every node as CSR int64 columns, in link-table row order.

    Row ``r``'s items are ``values[ptr[r]:ptr[r + 1]]``.  The per-row
    helpers below are the local steps of the one-shot protocols, each one
    pass over the columns.
    """

    ptr: np.ndarray
    values: np.ndarray

    @property
    def lengths(self):
        """Items per row (int64)."""
        return np.diff(self.ptr)

    def counts(self, mask):
        """Per row, how many of its items ``mask`` (one flag per item) sets."""
        running = np.zeros(mask.size + 1, dtype=np.int64)
        np.cumsum(mask, out=running[1:])
        return running[self.ptr[1:]] - running[self.ptr[:-1]]

    def slots(self, rows):
        """Where the items of ``rows`` lie in ``values``, row after row."""
        starts = self.ptr[rows]
        return run_slots(starts, self.ptr[rows + 1] - starts)

    def sums(self) -> list[int]:
        """Per-row item sums, exact: rows that could pass 2**63 are summed
        as Python ints instead of in int64."""
        values = self.values
        if values.size and int(values.max()) * int(self.lengths.max()) > INT64_MAX:
            return self.rows(sum)
        return self.reduce(np.add, 0)

    def sum_array(self):
        """Per-row item sums as int64, or ``None`` when the items could
        total past 2**63 (largest item × item count > INT64_MAX), so that
        some sum over several rows might not fit an int64."""
        values = self.values
        if values.size and int(values.max()) * values.size > INT64_MAX:
            return None
        # The running sum of the values never passes their total.
        return self.counts(values)

    def reduce(self, ufunc: np.ufunc, empty: object) -> list:
        """``ufunc`` (``np.add``, ``np.minimum``, ...) over each row's items;
        ``empty`` for a row with none."""
        lengths = self.lengths
        rows = np.flatnonzero(lengths)
        local = [empty] * lengths.size
        if rows.size:
            # Empty rows add no items, so consecutive non-empty starts bound
            # exactly one row's items each.
            reduced = ufunc.reduceat(self.values, self.ptr[rows])
            for row, value in zip(rows.tolist(), reduced.tolist()):
                local[row] = value
        return local

    def rows(self, make: Callable[[list[int]], object] = list) -> list:
        """``make`` applied to every row's items (a list of Python ints)."""
        bounds = self.ptr.tolist()
        values = self.values.tolist()
        return [make(values[start:end]) for start, end in zip(bounds, bounds[1:])]

    def select(self, keep, values=None) -> "ItemColumns":
        """The items ``keep`` (one flag per item) sets, each row in order;
        ``values`` (one per kept item) replaces them when given."""
        ptr = np.zeros_like(self.ptr)
        np.cumsum(self.counts(keep), out=ptr[1:])
        return ItemColumns(ptr, self.values[keep] if values is None else values)
