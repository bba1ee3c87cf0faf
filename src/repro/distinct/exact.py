"""Exact COUNT DISTINCT over the spanning tree.

To report the exact number of distinct values, a node cannot compress its
subtree's data below (roughly) one bit per possible value or ``log C(X̄, d)``
bits for ``d`` distinct values — duplicates can only be eliminated if the node
knows *which* values have already been counted.  The natural exact protocol
therefore convergecasts the *set* of distinct values seen in each subtree.

Theorem 5.1 shows this is not an artefact of the naive protocol: any exact
protocol (even randomized) transfers Ω(n) bits through some node in the worst
case.  The experiment harness (E7) runs this protocol on the adversarial
Set-Disjointness instances of :mod:`repro.distinct.disjointness` and measures
the linear growth directly, alongside the O(log log n) approximate protocol.

Off the per-edge path no set is built: a set's size is all its wire size
needs (plus, for the value listing, the sum of its values' varint widths),
and both are subtree sums of weights.  Each node holding a value weighs +1
for it; each pair of holders of one value that are consecutive in preorder
weighs -1 at their lowest common ancestor.  A subtree's holders of a value
are one run of consecutive holders, whose pairs all meet inside it, so the
weights of each value present sum to exactly 1 there — one ``lexsort`` of
the items and one binary-lifting climb
(:meth:`~repro.network.flat_tree.FlatTree.lowest_common_ancestors`) for all
pairs at once.
"""

from __future__ import annotations

import numpy as np

from repro._util.bits import fixed_width_bits, varint_bits, varint_bits_array
from repro.network.node import INT64_MAX, ItemColumns
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import require_in_domain
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import charge_up_sweep, convergecast, subtree_sums


class ExactDistinctCountProtocol:
    """Exact distinct counting by shipping value sets up the tree.

    ``domain_max`` (the paper's X̄), when provided, lets partial sets be encoded
    as whichever is smaller of an explicit value list and a bitmap over the
    domain; the accounting charges that minimum, which is the honest cost of
    the best simple exact encoding.
    """

    def __init__(self, domain_max: int | None = None) -> None:
        self._domain_max = domain_max

    def _set_bits(self, values: frozenset[int]) -> int:
        if not values:
            return 1
        count = len(values)
        if self._domain_max is None:
            return sum(varint_bits(value) for value in values) + varint_bits(count)
        listing = count * fixed_width_bits(self._domain_max) + varint_bits(count)
        return min(listing, self._domain_max + 1)  # or a bitmap over the domain

    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute the protocol; the result's ``value`` is the exact distinct count."""
        items = network.item_columns
        require_in_domain(network, items, self._domain_max, "COUNT_DISTINCT")
        with MeteredRun(network) as metered:
            broadcast(
                network, {"query": "COUNT_DISTINCT"}, 4, protocol="COUNT_DISTINCT"
            )
            if network.execution == "per-edge":
                merged = convergecast(
                    network,
                    items.rows(frozenset),
                    lambda a, b: a | b,
                    self._set_bits,
                    protocol="COUNT_DISTINCT",
                )
                answer = len(merged)
            else:
                answer = self._sweep(network, items)
        return metered.result(answer)

    def _sweep(self, network: SensorNetwork, items: ItemColumns) -> int:
        """The batched sweep: every node sends ``_set_bits`` of its
        subtree's value set, computed from subtree sums (see the module
        docstring); returns the root's distinct count."""
        flat = network.flat_tree
        order, start, _ = flat.preorder
        # Every tree item, keyed by its holder's preorder rank.
        row_rank = np.full(items.lengths.size, -1, dtype=np.int64)
        row_rank[network.tree_rows] = start
        ranks = np.repeat(row_rank, items.lengths)
        values = items.values
        on_tree = ranks >= 0
        ranks, values = ranks[on_tree], values[on_tree]
        # By value, then preorder; one entry per (value, holder).
        by = np.lexsort((ranks, values))
        ranks, values = ranks[by], values[by]
        first = np.ones(values.size, dtype=bool)
        first[1:] = (values[1:] != values[:-1]) | (ranks[1:] != ranks[:-1])
        holders, values = order[ranks[first]], values[first]
        paired = np.flatnonzero(values[1:] == values[:-1])
        meets = flat.lowest_common_ancestors(holders[paired], holders[paired + 1])

        def subtree_weights(weights):
            local = np.zeros(flat.num_nodes, dtype=np.int64)
            np.add.at(local, holders, weights)
            np.subtract.at(local, meets, weights[paired])
            return subtree_sums(flat, local)[flat.senders]

        counts = subtree_weights(np.ones(values.size, dtype=np.int64))
        count_bits = varint_bits_array(counts)
        if self._domain_max is None:
            sizes = subtree_weights(varint_bits_array(values)) + count_bits
        else:
            listing = counts * fixed_width_bits(self._domain_max) + count_bits
            # A bitmap over the domain; no listing here comes near INT64_MAX.
            sizes = np.minimum(listing, min(self._domain_max + 1, INT64_MAX))
        charge_up_sweep(network, np.where(counts > 0, sizes, 1), "COUNT_DISTINCT")
        # The root's set: every value held on the tree, once.
        return int(values.size - paired.size)
