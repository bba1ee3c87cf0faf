"""Sweep tallies: the tree sweeps of a search, charged once.

The paper's searches (Fig. 1's binary search, the noisy searches of Figs. 2
and 4) ask the root's question one probe at a time, and each probe, like
the MIN / MAX / COUNT prelude before it, is a broadcast down the tree and a
convergecast back up it.  The root picks its next probe from the last
answer alone, and the host computes that answer from the item columns; the
sweeps only carry the bits the paper charges.  In the synchronous model a
round's messages are a function of the states at its start, so computing
them in another order is the same execution as long as the ledger receives
the same charges, rounds and per-protocol totals.  A :class:`SweepTally`
adds up a search's sweeps (``broadcast`` and ``charge_up_sweep`` take it as
``tally=``) and charges each protocol's together, over the ``2(n - 1)``
tree links: one bit total and one message count per link, then one tree
height of rounds per sweep.

That is exact only where no send can fail and none is refused: off
``"per-edge"``, on a :attr:`~repro.network.SensorNetwork.deferrable`
network whose tree nodes are all alive (:func:`defers_sweeps`).  Everywhere
else every sweep is charged on the spot, in order, which is the
specification; ``tests/test_search_tally.py`` holds the two to the same
answers, results and ledger.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext

import numpy as np

from repro.network.simulator import SensorNetwork


def defers_sweeps(network: SensorNetwork) -> bool:
    """Whether a search on ``network`` may tally its probes' sweeps: not
    ``"per-edge"``, a deferrable network, every tree node alive."""
    if network.execution == "per-edge" or not network.deferrable:
        return False
    return network.num_alive == network.num_nodes or bool(
        network.alive_mask[network.flat_tree.ids_array].all()
    )


class SweepTally:
    """Every sweep of one search, summed per protocol and per tree link,
    and charged by :meth:`charge`: a broadcast adds its size over every down
    link, an up-sweep its sizes over every up link."""

    def __init__(self, network: SensorNetwork) -> None:
        self.network = network
        # protocol -> [broadcasts, bits per down link, up-sweeps, up bits]
        self._sweeps: dict[str, list] = {}

    def down(self, protocol: str, size_bits: int, sweeps: int = 1) -> None:
        """Tally ``sweeps`` broadcasts of ``size_bits`` bits in all per link."""
        entry = self._sweeps.setdefault(protocol, [0, 0, 0, 0])
        entry[0] += sweeps
        entry[1] += size_bits

    def up(self, protocol: str, sizes, sweeps: int = 1) -> None:
        """Tally ``sweeps`` up-sweeps of ``sizes`` bits in all per link (one
        int, or one per sender in ``flat.senders`` order)."""
        entry = self._sweeps.setdefault(protocol, [0, 0, 0, 0])
        entry[2] += sweeps
        entry[3] = entry[3] + sizes

    def charge(self) -> None:
        """Charge each protocol's sweeps in one call, and advance a tree
        height of rounds per sweep; then start a fresh tally."""
        network = self.network
        flat = network.flat_tree
        senders = len(flat.senders)
        links = np.concatenate((flat.down_link_array, flat.up_link_array))
        for protocol, (downs, down_bits, ups, up_bits) in self._sweeps.items():
            bits = np.empty(2 * senders, dtype=np.int64)
            bits[:senders] = down_bits
            bits[senders:] = up_bits
            messages = np.repeat(np.array([downs, ups], dtype=np.int64), senders)
            # A link no sweep used carries zeros: it stays untouched.
            network.charge_totals(links, bits, messages, protocol)
            network.ledger.advance_round(flat.height * (downs + ups))
        self._sweeps.clear()

    def __enter__(self) -> "SweepTally":
        return self

    def __exit__(self, *exc_info) -> None:
        self.charge()


def sweep_tally(
    network: SensorNetwork, outer: SweepTally | None = None
) -> AbstractContextManager[SweepTally | None]:
    """The tally a search adds its sweeps to: ``outer`` when it runs inside
    another search's tally, else a fresh one charged on leaving the block
    (an exception included, so the ledger holds the sweeps made before it,
    as on the spot), or ``None`` where :func:`defers_sweeps` is false."""
    if outer is not None or not defers_sweeps(network):
        return nullcontext(outer)
    return SweepTally(network)
