"""TAG-style tree aggregates: MIN, MAX, COUNT, SUM, AVERAGE.

These are the aggregates the TAG paper identifies as efficiently computable on
a spanning tree, and the paper's Fact 2.1: communication complexity
``O(log N)`` bits per node, space ``O(log N)``, constant processing per item.

Every protocol follows the same two-phase structure:

1. a tiny broadcast announcing the query (a constant-size opcode), and
2. a convergecast of partial aggregates whose wire size is one value
   (``O(log N)`` bits since values are polynomial in N).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro._util.bits import fixed_width_bits, varint_bits, varint_bits_array
from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.node import ItemColumns
from repro.network.simulator import SensorNetwork
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import (
    charge_up_sweep,
    convergecast,
    count_convergecast,
    extremum_convergecast,
    subtree_sums,
)
from repro.protocols.tally import SweepTally

# Size of the query-announcement broadcast: an opcode identifying the
# aggregate.  Constant, as in Fact 2.1.
_REQUEST_BITS = 4


def _value_size(domain_max: int | None) -> Callable[[int | None], int]:
    """Wire size of one partial aggregate value."""

    def size(value: int | None) -> int:
        if value is None:
            return 1  # an explicit "no data" marker
        if domain_max is not None:
            return fixed_width_bits(domain_max) + 1
        return varint_bits(int(value)) + 1

    return size


def _value_sizes(domain_max: int | None) -> Callable:
    """:func:`_value_size` over arrays: ``sizes(values, has_data)``, the
    size of each value, 1 bit where ``has_data`` is false."""

    def sizes(values, has_data):
        if domain_max is not None:
            width = fixed_width_bits(domain_max)
        else:
            width = varint_bits_array(values)
        return np.where(has_data, width + 1, 1)

    return sizes


def require_in_domain(
    network: SensorNetwork,
    items: ItemColumns,
    domain_max: int | None,
    protocol: str,
) -> None:
    """Refuse a tree node's item above ``domain_max``, which the protocol's
    fixed-width encoding could not carry, with
    :class:`~repro.exceptions.ConfigurationError` naming it.

    Only nodes the tree spans are read (a detached node's items reach no
    sweep), in one array compare.
    """
    if domain_max is None:
        return
    values, lengths = items.values, items.lengths
    rows = network.tree_rows
    if rows.size < lengths.size:
        attached = np.zeros(lengths.size, dtype=bool)
        attached[rows] = True
        values = values[np.repeat(attached, lengths)]
    above = values[values > domain_max]
    if above.size:
        raise ConfigurationError(
            f"{protocol}: item {int(above.max())} exceeds domain_max={domain_max}"
        )


class _ExtremumProtocol:
    """Shared implementation of MIN and MAX."""

    def __init__(
        self,
        pick: Callable[[int, int], int],
        reduce: np.ufunc,
        name: str,
        domain_max: int | None = None,
    ) -> None:
        self._pick = pick
        self._reduce = reduce
        self._name = name
        self._domain_max = domain_max

    def run(
        self, network: SensorNetwork, items: ItemColumns | None = None
    ) -> ProtocolResult:
        """Run over the network's items, or over ``items`` (other columns
        in the same row order) when given."""
        with MeteredRun(network) as metered:
            answer = self.value(network, items)
        return metered.result(answer)

    def value(
        self,
        network: SensorNetwork,
        items: ItemColumns | None = None,
        tally: SweepTally | None = None,
    ) -> int:
        """The answer :meth:`run` returns, unmetered: a search's ``tally``
        (:mod:`repro.protocols.tally`) takes the two sweeps' charges."""
        if items is None:
            items = network.item_columns
        require_in_domain(network, items, self._domain_max, self._name)
        broadcast(
            network, {"query": self._name}, _REQUEST_BITS, protocol=self._name, tally=tally
        )
        if network.execution == "per-edge":
            pick = self._pick

            def combine(a: int | None, b: int | None) -> int | None:
                if a is None:
                    return b
                if b is None:
                    return a
                return pick(a, b)

            answer = convergecast(
                network,
                items.reduce(self._reduce, None),
                combine,
                _value_size(self._domain_max),
                protocol=self._name,
            )
        else:
            answer = extremum_convergecast(
                network,
                items,
                self._reduce,
                _value_sizes(self._domain_max),
                protocol=self._name,
                tally=tally,
            )
        if answer is None:
            raise EmptyNetworkError(
                f"{self._name}: no node holds any item"
            )
        return answer


class MinProtocol(_ExtremumProtocol):
    """Compute min(X) over the tree (Fact 2.1)."""

    def __init__(self, domain_max: int | None = None) -> None:
        super().__init__(min, np.minimum, "MIN", domain_max=domain_max)


class MaxProtocol(_ExtremumProtocol):
    """Compute max(X) over the tree (Fact 2.1)."""

    def __init__(self, domain_max: int | None = None) -> None:
        super().__init__(max, np.maximum, "MAX", domain_max=domain_max)


class CountProtocol:
    """Compute |X| (with multiplicities) over the tree (Fact 2.1)."""

    def run(self, network: SensorNetwork) -> ProtocolResult:
        with MeteredRun(network) as metered:
            answer = self.value(network)
        return metered.result(answer)

    def value(self, network: SensorNetwork, tally: SweepTally | None = None) -> int:
        """The answer :meth:`run` returns, unmetered: a search's ``tally``
        (:mod:`repro.protocols.tally`) takes the two sweeps' charges."""
        broadcast(network, {"query": "COUNT"}, _REQUEST_BITS, protocol="COUNT", tally=tally)
        return count_convergecast(
            network, network.item_columns.lengths, protocol="COUNT", tally=tally
        )


class SumProtocol:
    """Compute the sum of all items over the tree (Fact 2.1)."""

    def run(self, network: SensorNetwork) -> ProtocolResult:
        with MeteredRun(network) as metered:
            broadcast(network, {"query": "SUM"}, _REQUEST_BITS, protocol="SUM")
            local = _batched_sums(network)
            if local is None:
                # The partials are Python ints: a sum may pass 2**63.
                answer = convergecast(
                    network,
                    network.item_columns.sums(),
                    lambda a, b: a + b,
                    lambda value: varint_bits(int(value)),
                    protocol="SUM",
                )
            else:
                answer = count_convergecast(network, local, protocol="SUM")
        return metered.result(answer)


class AverageProtocol:
    """Compute the mean of all items (as a float) over the tree (Fact 2.1).

    Partial aggregates are (sum, count) pairs, as in TAG.
    """

    def run(self, network: SensorNetwork) -> ProtocolResult:
        with MeteredRun(network) as metered:
            broadcast(network, {"query": "AVG"}, _REQUEST_BITS, protocol="AVG")
            items = network.item_columns
            local = _batched_sums(network)
            if local is None:

                def combine(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
                    return a[0] + b[0], a[1] + b[1]

                total, count = convergecast(
                    network,
                    list(zip(items.sums(), items.lengths.tolist())),
                    combine,
                    lambda pair: varint_bits(int(pair[0])) + varint_bits(int(pair[1])),
                    protocol="AVG",
                )
            else:
                flat = network.flat_tree
                rows = network.tree_rows
                sums = subtree_sums(flat, local[rows])
                counts = subtree_sums(flat, items.lengths[rows])
                senders = flat.senders
                charge_up_sweep(
                    network,
                    varint_bits_array(sums[senders]) + varint_bits_array(counts[senders]),
                    "AVG",
                )
                total, count = int(sums[0]), int(counts[0])
            if count == 0:
                raise EmptyNetworkError("AVERAGE: the network holds no items")
            answer = total / count
        return metered.result(answer)


def _batched_sums(network: SensorNetwork):
    """Every row's item sum (int64) for the batched SUM / AVG sweep, or
    ``None`` for the generic fold: on the per-edge path, or when a subtree
    sum might not fit an int64."""
    if network.execution == "per-edge":
        return None
    return network.item_columns.sum_array()
