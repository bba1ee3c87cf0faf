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

Both read the same local values, combine partials and draw radio randomness
in exactly the same order, so they produce bit-for-bit identical ledgers and
results (``tests/test_oracle.py`` holds every path to the per-edge reference).

Where the partial aggregate has an array form, the batched path need not
fold per-node objects at all.  :func:`count_convergecast` (COUNT, COUNTP)
sums subtrees level by level, and APX_COUNT
(:mod:`repro.protocols.apx_count`) scatters every node's hashes into the
root's registers at once.  Either way the sizes sent are the ones the
per-node fold would send, and :func:`charge_up_sweep` charges them.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro._util.bits import varint_bits, varint_bits_array
from repro.network.simulator import SensorNetwork

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
    # sequence is the precomputed flat.up_links; only the sizes are dynamic.
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
        sizes = [size_bits] * len(flat.up_links)
    charge_up_sweep(network, sizes, protocol)
    return values[0]  # the root has canonical index 0


def charge_up_sweep(network: SensorNetwork, sizes: Sequence[int], protocol: str) -> None:
    """Charge one bottom-up sweep: ``sizes[i]`` bits over ``flat.up_links[i]``.

    Every batched convergecast ends here, so radio draw order, the charged
    prefix of a :class:`~repro.exceptions.DeliveryError`, the budget raise
    point and dead-node errors are those of :meth:`SensorNetwork.send_batch`
    — called through the instance, so a patched ``send_batch`` sees it.
    """
    flat = network.flat_tree
    network.send_batch(flat.up_links, sizes, protocol=protocol, require_edge=False)
    network.ledger.advance_round(flat.height)


def count_convergecast(network: SensorNetwork, local_counts, protocol: str) -> int:
    """Total ``local_counts`` (one int per link-table row) over the tree,
    each partial sent as a varint.

    The same transmissions as ``convergecast(network, local_counts, a + b,
    varint_bits)``.  Off the per-edge path it is one array pass: the tree's
    local counts are summed into their parents deepest level first, and the
    sizes are the varint widths of the subtree sums.
    """
    local_counts = np.asarray(local_counts, dtype=np.int64)
    if network.execution == "per-edge":
        return _convergecast_per_edge(
            network, local_counts.tolist(), operator.add, varint_bits, protocol
        )
    flat = network.flat_tree
    bottom_up = flat.bottom_up
    parent = flat.parent
    sums = local_counts[network.tree_rows]
    for start, end in reversed(flat.level_spans[1:]):
        np.add.at(sums, parent[start:end], sums[start:end])
    senders = bottom_up[parent[bottom_up] >= 0]
    charge_up_sweep(network, varint_bits_array(sums[senders]).tolist(), protocol)
    return int(sums[0])  # the root has canonical index 0


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
