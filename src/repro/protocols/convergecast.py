"""Convergecast: leaves-to-root aggregation over the spanning tree.

The TAG idea (and the paper's Fact 2.1) is that a node does not forward raw
data; it combines its children's partial aggregates with its own local value
and sends a single partial aggregate to its parent.  The generic traversal
below is parameterised by

* ``local_values`` — every node's own contribution, one per link-table row
  (computed locally from the item columns, free),
* ``combine`` — the aggregation operator (must be associative and commutative
  for the result to be independent of child ordering),
* ``size_bits`` — the wire size of a partial aggregate, either a constant or
  a callable evaluated on the value actually sent (so adaptive encodings are
  charged faithfully).

Two execution paths implement the same traversal, selected by
``network.execution``:

* *batched* (every mode but ``"per-edge"``) — walks the
  :class:`~repro.network.flat_tree.FlatTree` arrays, collects every upward
  transmission of the sweep, and charges them in one
  :func:`charge_up_sweep`.  This is what lets the simulator run 100k-node
  fields.
* *per-edge* — the reference implementation: one
  :meth:`~repro.network.SensorNetwork.send` per tree edge.

Both read the same local values, combine partials and send over the same
links in the same order (the radio's draws depend on each link and its send
count, not the order), so they produce bit-for-bit identical ledgers and
results (``tests/test_oracle.py`` holds every path to the per-edge reference).

Where the partial aggregate has an array form, the batched path need not
fold per-node objects at all: every node's partial is an aggregate of its
subtree, and a subtree is one span of the tree's depth-first preorder
(:attr:`~repro.network.flat_tree.FlatTree.preorder`).  :func:`subtree_sums`
is one ``cumsum`` over the preorder and one difference per span; it serves
:func:`count_convergecast` (COUNT, COUNTP, SUM), AVG (run on the sums and
on the counts) and exact COUNT DISTINCT (:mod:`repro.distinct.exact`, on
weights that cancel at the meeting point of two holders of one value).
:func:`extremum_convergecast` (MIN, MAX) is one ``ufunc.reduceat`` over the
spans, with a has-item mask standing in for the fold's ``None``; APX_COUNT
(:mod:`repro.protocols.apx_count`) scatters every node's hashes into the
root's registers at once.  Either way the sizes sent are the ones the
per-node fold would send, and :func:`charge_up_sweep` charges them.  SUM
and AVG keep the generic fold only when the items could total past 2**63,
which an int64 subtree sum cannot hold.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

from repro._util.bits import varint_bits, varint_bits_array
from repro.network.node import ItemColumns
from repro.network.simulator import SensorNetwork

if TYPE_CHECKING:
    from repro.protocols.tally import SweepTally

T = TypeVar("T")


def convergecast(
    network: SensorNetwork,
    local_values: Sequence[T],
    combine: Callable[[T, T], T],
    size_bits: int | Callable[[T], int],
    protocol: str = "convergecast",
) -> T:
    """Aggregate ``local_values`` over the tree, returning the root's total.

    ``local_values[r]`` is the contribution of the node in link-table row
    ``r`` (see :attr:`~repro.network.SensorNetwork.tree_rows`); nodes off
    the tree are not read.  The traversal visits nodes bottom-up so every
    child has produced its partial aggregate before its parent combines it.
    The number of synchronous rounds consumed equals the tree height.
    """
    if network.execution == "per-edge":
        return _convergecast_per_edge(
            network, local_values, combine, size_bits, protocol
        )
    return _convergecast_batched(network, local_values, combine, size_bits, protocol)


def _convergecast_batched(
    network: SensorNetwork,
    local_values: Sequence[T],
    combine: Callable[[T, T], T],
    size_bits: int | Callable[[T], int],
    protocol: str,
) -> T:
    flat = network.flat_tree
    rows = network.tree_rows.tolist()
    parent = flat.parent
    child_start = flat.child_start
    child_end = flat.child_end
    child_index = flat.child_index
    values: list[T | None] = [None] * flat.num_nodes
    # Every non-root node sends exactly once, in bottom-up order — the edge
    # sequence is the precomputed flat.up_link_array; only the sizes are
    # dynamic.
    # An adaptive size callable is invoked exactly as on the per-edge path:
    # once per transmitting (non-root) node, in the same order.
    sizes: list[int] = []
    append_size = sizes.append
    adaptive = callable(size_bits)
    for position in flat.bottom_up:
        value = local_values[rows[position]]
        start = child_start[position]
        end = child_end[position]
        if start != end:
            for slot in range(start, end):
                value = combine(value, values[child_index[slot]])
        values[position] = value
        if adaptive and parent[position] >= 0:
            append_size(size_bits(value))
    if not adaptive:
        sizes = [size_bits] * len(flat.senders)
    charge_up_sweep(network, sizes, protocol)
    return values[0]  # the root has canonical index 0


def charge_up_sweep(
    network: SensorNetwork,
    sizes: Sequence[int],
    protocol: str,
    tally: SweepTally | None = None,
) -> None:
    """Charge one bottom-up sweep: ``sizes[i]`` bits over ``flat.up_links[i]``.

    Every batched convergecast ends here, so the radio draws, the charged
    prefix of a :class:`~repro.exceptions.DeliveryError`, the budget raise
    point and dead-node errors are those of :meth:`SensorNetwork.send_batch`
    — called through the instance, so a patched ``send_batch`` sees it.  The
    links go as the cached ``flat.up_link_array``.  With a search's
    ``tally`` (:mod:`repro.protocols.tally`) the sweep is added to it
    instead, to be charged with the search's other sweeps.
    """
    if tally is not None:
        tally.up(protocol, sizes)
        return
    flat = network.flat_tree
    network.send_batch(
        flat.up_link_array, sizes, protocol=protocol, require_edge=False
    )
    network.ledger.advance_round(flat.height)


def _subtree_running(flat, local):
    """``(running, start, end)``: the running sum of ``local`` (one int per
    canonical position) in preorder, and every node's subtree span in it —
    node ``p``'s subtree total is ``running[end[p]] - running[start[p]]``."""
    order, start, size = flat.preorder
    running = np.zeros(flat.num_nodes + 1, dtype=np.int64)
    np.cumsum(local[order], out=running[1:])
    return running, start, start + size


def subtree_sums(flat, local):
    """Every node's subtree total of ``local`` (one int64 per canonical
    position), in canonical order: the root's, at 0, is the whole tree's."""
    running, start, end = _subtree_running(flat, local)
    return running[end] - running[start]


def count_convergecast(
    network: SensorNetwork, local_counts, protocol: str, tally: SweepTally | None = None
) -> int:
    """Total ``local_counts`` (one int per link-table row) over the tree,
    each partial sent as a varint.

    The same transmissions as ``convergecast(network, local_counts, a + b,
    varint_bits)``.  Off the per-edge path every subtree sum is one
    difference of a running sum over the preorder, and the sizes are their
    varint widths; the caller keeps every subtree sum within int64.  A
    ``tally`` takes the sweep's charge (:func:`charge_up_sweep`).
    """
    local_counts = np.asarray(local_counts, dtype=np.int64)
    if network.execution == "per-edge":
        return _convergecast_per_edge(
            network, local_counts.tolist(), operator.add, varint_bits, protocol
        )
    flat = network.flat_tree
    sums = subtree_sums(flat, local_counts[network.tree_rows])
    charge_up_sweep(network, varint_bits_array(sums[flat.senders]), protocol, tally)
    return int(sums[0])  # the root has canonical index 0


def extremum_convergecast(
    network: SensorNetwork,
    items: ItemColumns,
    ufunc: np.ufunc,
    value_sizes: Callable,
    protocol: str,
    tally: SweepTally | None = None,
) -> int | None:
    """The batched MIN / MAX sweep: ``ufunc`` (``np.minimum`` or
    ``np.maximum``) over every tree node's ``items``; ``None`` when no tree
    node holds one.

    The same transmissions as the generic fold of every row's
    ``items.reduce(ufunc, None)`` under "pick, or the other side when one is
    ``None``": each node sends its subtree's extremum, sized by
    ``value_sizes(values, has_data)`` — the array form of the fold's size
    callable, ``has_data`` false where the subtree holds no item.  The
    subtrees' item-holding nodes are one span of the preorder restricted to
    item holders, so one ``reduceat`` over the spans folds them all.  A
    ``tally`` takes the sweep's charge (:func:`charge_up_sweep`).
    """
    flat = network.flat_tree
    lengths = items.lengths
    holders = np.flatnonzero(lengths)
    local = np.zeros(lengths.size, dtype=np.int64)
    if holders.size:
        local[holders] = ufunc.reduceat(items.values, items.ptr[holders])
    rows = network.tree_rows
    holds = lengths[rows] > 0
    # Node p's subtree holders are held[low[p]:high[p]].
    running, start, end = _subtree_running(flat, holds)
    low, high = running[start], running[end]
    has_data = high > low
    bounds = np.empty(2 * flat.num_nodes, dtype=np.int64)
    bounds[0::2] = low
    bounds[1::2] = high
    # The holders' values in preorder, padded so every bound is an index;
    # an empty span reads one stray value, which ``has_data`` masks.
    order = flat.preorder[0]
    held = np.append(local[rows[order[holds[order]]]], 0)
    values = ufunc.reduceat(held, bounds)[0::2]
    senders = flat.senders
    charge_up_sweep(
        network, value_sizes(values[senders], has_data[senders]), protocol, tally
    )
    return int(values[0]) if has_data[0] else None


def _convergecast_per_edge(
    network: SensorNetwork,
    local_values: Sequence[T],
    combine: Callable[[T, T], T],
    size_bits: int | Callable[[T], int],
    protocol: str,
) -> T:
    tree = network.tree
    row_of = network.links.row_of
    partial: dict[int, T] = {}
    for node_id in tree.nodes_bottom_up():
        value = local_values[row_of(node_id)]
        for child in tree.children[node_id]:
            value = combine(value, partial.pop(child))
        partial[node_id] = value
        parent = tree.parent[node_id]
        if parent is not None:
            bits = size_bits(value) if callable(size_bits) else size_bits
            network.send(node_id, parent, value, bits, protocol=protocol)
    network.ledger.advance_round(tree.height)
    return partial[network.root_id]
