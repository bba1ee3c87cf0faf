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
the flat tree's ``down_links``, while the per-edge path sends edge by edge.
They charge the same edges in the same order and are bit-for-bit
ledger-equivalent.
"""

from __future__ import annotations

from typing import Any

from repro._util.validation import require_non_negative
from repro.network.simulator import SensorNetwork


def broadcast(
    network: SensorNetwork,
    payload: Any,
    size_bits: int,
    protocol: str = "broadcast",
) -> dict[int, Any]:
    """Send ``payload`` from the root to every node along tree edges.

    Returns a map of node id → delivered payload (identical objects for a
    reliable radio; the map exists so callers can model per-node delivery if a
    lossy radio duplicates or mutates messages in the future).
    The number of synchronous rounds consumed equals the tree height.
    """
    require_non_negative(size_bits, "size_bits")
    if network.execution == "per-edge":
        return _broadcast_per_edge(network, payload, size_bits, protocol)
    return _broadcast_batched(network, payload, size_bits, protocol)


def _broadcast_batched(
    network: SensorNetwork, payload: Any, size_bits: int, protocol: str
) -> dict[int, Any]:
    flat = network.flat_tree
    # flat.down_links lists every parent→child edge in exactly the order the
    # per-edge top-down sweep transmits them.
    network.send_batch(
        flat.down_links,
        [size_bits] * len(flat.down_links),
        protocol=protocol,
        require_edge=False,
    )
    # The tree spans the graph, so every node receives the payload.
    delivered = {node_id: payload for node_id in flat.node_ids}
    network.ledger.advance_round(flat.height)
    return delivered


def _broadcast_per_edge(
    network: SensorNetwork, payload: Any, size_bits: int, protocol: str
) -> dict[int, Any]:
    tree = network.tree
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
    return delivered
