"""Broadcast: root-to-leaves dissemination over the spanning tree.

Every protocol the root initiates starts with a small broadcast — a request
identifier, a predicate description, the intermediate median estimate that
APX_MEDIAN2 pushes down between zoom-in iterations.  Each tree edge carries
one copy of the payload; with a bounded-degree tree a node therefore sends and
receives ``O(size_bits)`` bits, which is what Fact 2.1 charges for the request
phase of the primitive protocols.

As with :mod:`~repro.protocols.convergecast`, two execution paths implement
the same traversal: the batched path (default) expands the whole top-down
sweep into one :meth:`~repro.network.SensorNetwork.send_batch` call over
the flat tree's cached ``down_link_array``, and builds nothing per node,
while the per-edge path sends edge by edge, each child forwarding the
payload it was delivered.
They charge the same edges in the same order and are bit-for-bit
ledger-equivalent; neither returns a per-node map, since what each node
received is what the ledger records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro._util.validation import require_non_negative
from repro.network.simulator import SensorNetwork

if TYPE_CHECKING:
    from repro.protocols.tally import SweepTally


def broadcast(
    network: SensorNetwork,
    payload: Any,
    size_bits: int,
    protocol: str = "broadcast",
    tally: SweepTally | None = None,
) -> None:
    """Send ``payload`` from the root to every node along tree edges.

    Returns nothing: what each node received is what the ledger records.
    The number of synchronous rounds consumed equals the tree height.  With
    a search's ``tally`` (:mod:`repro.protocols.tally`) the sweep is added
    to it, to be charged with the search's other sweeps.
    """
    require_non_negative(size_bits, "size_bits")
    if tally is not None:
        tally.down(protocol, size_bits)
    elif network.execution == "per-edge":
        _broadcast_per_edge(network, payload, size_bits, protocol)
    else:
        _broadcast_batched(network, size_bits, protocol)


def _broadcast_batched(network: SensorNetwork, size_bits: int, protocol: str) -> None:
    flat = network.flat_tree
    # flat.down_link_array lists every parent→child edge in exactly the
    # order the per-edge top-down sweep transmits them.
    links = flat.down_link_array
    network.send_batch(
        links,
        np.full(len(links), size_bits, dtype=np.int64),
        protocol=protocol,
        require_edge=False,
    )
    network.ledger.advance_round(flat.height)


def _broadcast_per_edge(
    network: SensorNetwork, payload: Any, size_bits: int, protocol: str
) -> None:
    tree = network.tree
    # Each child forwards the payload it was delivered.
    delivered: dict[int, Any] = {network.root_id: payload}
    for node_id in tree.nodes_top_down():
        if node_id not in delivered:
            continue
        for child in tree.children[node_id]:
            message = network.send(
                node_id, child, delivered[node_id], size_bits, protocol=protocol
            )
            delivered[child] = message.payload
    network.ledger.advance_round(tree.height)
