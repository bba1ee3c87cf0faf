"""Topology generators.

Every named topology has one generator that emits its links as edge arrays
straight into a :class:`~repro.network.links.LinkTable` (:func:`build_links`);
nodes are the integers ``0 .. n-1`` and the graph is connected.  By convention
node ``0`` is the root (the node connected to the user entity in the TAG
setting), although the simulator lets callers pick any root.  The
``*_topology`` functions and :func:`build_topology` return the same links as
an ``nx.Graph`` for callers that want one.

The paper is agnostic about the communication structure — it only assumes the
primitive protocols of Fact 2.1 exist — so the experiment harness runs every
protocol over several qualitatively different topologies: the line (worst-case
diameter), the grid and random geometric graphs (typical sensor deployments),
the star (worst case for the individual complexity measure without a
degree-bounded tree), the single-hop clique (the Singh–Prasanna setting), the
ring, and uniformly random trees.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import numpy as np

from repro._util.randomness import make_rng
from repro._util.validation import require_positive
from repro.exceptions import TopologyError
from repro.network.links import LinkTable


# --------------------------------------------------------------------------- #
# Link generators: edge arrays, connected by construction unless noted
# --------------------------------------------------------------------------- #
def line_links(num_nodes: int) -> LinkTable:
    """A path 0 - 1 - ... - (n-1); maximises diameter, degree at most 2."""
    require_positive(num_nodes, "num_nodes")
    low = np.arange(num_nodes - 1, dtype=np.int64)
    return LinkTable(num_nodes, low, low + 1)


def ring_links(num_nodes: int) -> LinkTable:
    """A cycle; like the line but with no leaves."""
    require_positive(num_nodes, "num_nodes")
    if num_nodes < 3:
        return line_links(num_nodes)
    low = np.arange(num_nodes, dtype=np.int64)
    high = low + 1
    low[-1], high[-1] = 0, num_nodes - 1
    return LinkTable(num_nodes, low, high)


def star_links(num_nodes: int) -> LinkTable:
    """Node 0 adjacent to every other node.

    The star is the stress case for the paper's *individual* complexity
    measure: without care the centre relays traffic for everyone, which is why
    Fact 2.1 requires a bounded-degree spanning tree.
    """
    require_positive(num_nodes, "num_nodes")
    return LinkTable(
        num_nodes,
        np.zeros(num_nodes - 1, dtype=np.int64),
        np.arange(1, num_nodes, dtype=np.int64),
    )


def single_hop_links(num_nodes: int) -> LinkTable:
    """A clique: every node hears every other (the Singh–Prasanna model)."""
    require_positive(num_nodes, "num_nodes")
    low, high = np.triu_indices(num_nodes, 1)
    return LinkTable(num_nodes, low, high)


def grid_links(rows: int, cols: int | None = None) -> LinkTable:
    """A rows × cols 4-neighbour grid, the classic sensor-field layout.

    Node ``r * cols + c`` sits at row ``r``, column ``c``.
    """
    require_positive(rows, "rows")
    if cols is None:
        cols = rows
    require_positive(cols, "cols")
    cell = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    across = cell[:, :-1].ravel()
    down = cell[:-1, :].ravel()
    return LinkTable(
        rows * cols,
        np.concatenate((across, down)),
        np.concatenate((across + 1, down + cols)),
    )


def _geometric_pairs(xy, radius: float):
    """Every pair of rows of ``xy`` with ``dx*dx + dy*dy <= radius*radius``.

    Points are bucketed into square cells of side at least ``radius``, so a
    pair within range lies in one cell or in two adjacent ones; each cell
    is compared with itself and with four neighbours (one half-plane, so no
    pair is seen twice).  Returns ``(low, high)`` with ``low < high``.
    """
    # A hair under 1/radius cells per axis keeps the side >= radius even
    # where 1/radius is an integer up to rounding.
    cells = max(1, int(1.0 / (radius * (1.0 + 1e-9))))
    column = np.minimum((xy * cells).astype(np.int64), cells - 1)
    cell_of = column[:, 0] * cells + column[:, 1]
    order = np.argsort(cell_of, kind="stable")
    sorted_cell = cell_of[order]
    counts = np.bincount(sorted_cell, minlength=cells * cells)
    starts = np.cumsum(counts) - counts
    points = xy[order]
    own = np.arange(order.size, dtype=np.int64)
    cx, cy = np.divmod(sorted_cell, cells)
    radius_sq = radius * radius
    low_parts, high_parts = [], []
    for dx, dy in ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1)):
        px, py = cx + dx, cy + dy
        inside = (px < cells) & (py >= 0) & (py < cells)
        partner = np.where(inside, px * cells + py, 0)
        span = np.where(inside, counts[partner], 0)
        ends = np.cumsum(span)
        if not ends[-1]:
            continue
        left = np.repeat(own, span)
        right = np.arange(ends[-1], dtype=np.int64) + np.repeat(
            starts[partner] - ends + span, span
        )
        if (dx, dy) == (0, 0):
            keep = left < right
            left, right = left[keep], right[keep]
        delta = points[left] - points[right]
        close = delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1] <= radius_sq
        left, right = order[left[close]], order[right[close]]
        low_parts.append(np.minimum(left, right))
        high_parts.append(np.maximum(left, right))
    if not low_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(low_parts), np.concatenate(high_parts)


def random_geometric_links(
    num_nodes: int,
    radius: float | None = None,
    seed: int | None = 0,
    max_attempts: int = 50,
) -> LinkTable:
    """A connected random geometric graph on the unit square.

    Nodes are placed uniformly at random and connected when within ``radius``.
    When ``radius`` is omitted the critical connectivity radius
    ``sqrt(2 * ln(n) / n)`` is used.  The generator retries (growing the radius
    by 10% each attempt) until the graph is connected, so callers always get a
    usable deployment.

    Each attempt draws the positions ``networkx.random_geometric_graph``
    draws for the same seed — ``random.Random(seed).random()``, x then y,
    node by node — and keeps the same pairs, so the links equal that
    generator's edges; only numpy is needed to find them.
    """
    require_positive(num_nodes, "num_nodes")
    if num_nodes == 1:
        return LinkTable(1, [], [])
    rng = make_rng(seed)
    if radius is None:
        radius = math.sqrt(2.0 * math.log(num_nodes) / num_nodes)
    if radius <= 0:
        raise TopologyError(f"radius must be positive, got {radius}")
    current_radius = radius
    for _ in range(max_attempts):
        draw = random.Random(rng.getrandbits(32)).random
        xy = np.array([draw() for _ in range(2 * num_nodes)]).reshape(num_nodes, 2)
        links = LinkTable(num_nodes, *_geometric_pairs(xy, current_radius))
        if links.bfs(0)[0].size == num_nodes:
            return links
        current_radius *= 1.1
    raise TopologyError(
        f"could not build a connected random geometric graph with "
        f"{num_nodes} nodes after {max_attempts} attempts"
    )


def random_tree_links(num_nodes: int, seed: int | None = 0) -> LinkTable:
    """A uniformly random labelled tree (Prüfer sequence)."""
    require_positive(num_nodes, "num_nodes")
    if num_nodes <= 2:
        return line_links(num_nodes)
    rng = make_rng(seed)
    prufer = [rng.randrange(num_nodes) for _ in range(num_nodes - 2)]
    pairs = np.array(list(nx.from_prufer_sequence(prufer).edges()), dtype=np.int64)
    pairs.sort(axis=1)
    return LinkTable(num_nodes, pairs[:, 0], pairs[:, 1])


TOPOLOGY_BUILDERS = {
    "line": line_links,
    "ring": ring_links,
    "star": star_links,
    "single_hop": single_hop_links,
    "grid": lambda n: grid_links(max(1, int(round(math.sqrt(n))))),
    "random_geometric": random_geometric_links,
    "random_tree": random_tree_links,
}
"""Name → link generator used by the experiment harness; grid builds ~n nodes."""


def build_links(name: str, num_nodes: int, seed: int | None = 0) -> LinkTable:
    """Build a named topology with (approximately) ``num_nodes`` nodes."""
    if name not in TOPOLOGY_BUILDERS:
        raise TopologyError(
            f"unknown topology {name!r}; known: {sorted(TOPOLOGY_BUILDERS)}"
        )
    builder = TOPOLOGY_BUILDERS[name]
    if name in ("random_geometric", "random_tree"):
        return builder(num_nodes, seed=seed)
    return builder(num_nodes)


def build_topology(name: str, num_nodes: int, seed: int | None = 0) -> nx.Graph:
    """:func:`build_links` as an ``nx.Graph``."""
    return build_links(name, num_nodes, seed=seed).to_networkx()


# --------------------------------------------------------------------------- #
# The generators as networkx graphs, and the networkx-only topologies
# --------------------------------------------------------------------------- #
def line_topology(num_nodes: int) -> nx.Graph:
    """:func:`line_links` as an ``nx.Graph``."""
    return line_links(num_nodes).to_networkx()


def ring_topology(num_nodes: int) -> nx.Graph:
    """:func:`ring_links` as an ``nx.Graph``."""
    return ring_links(num_nodes).to_networkx()


def star_topology(num_nodes: int) -> nx.Graph:
    """:func:`star_links` as an ``nx.Graph``."""
    return star_links(num_nodes).to_networkx()


def single_hop_topology(num_nodes: int) -> nx.Graph:
    """:func:`single_hop_links` as an ``nx.Graph``."""
    return single_hop_links(num_nodes).to_networkx()


def grid_topology(rows: int, cols: int | None = None) -> nx.Graph:
    """:func:`grid_links` as an ``nx.Graph``."""
    return grid_links(rows, cols).to_networkx()


def random_geometric_topology(
    num_nodes: int,
    radius: float | None = None,
    seed: int | None = 0,
    max_attempts: int = 50,
) -> nx.Graph:
    """:func:`random_geometric_links` as an ``nx.Graph``."""
    return random_geometric_links(num_nodes, radius, seed, max_attempts).to_networkx()


def random_tree_topology(num_nodes: int, seed: int | None = 0) -> nx.Graph:
    """:func:`random_tree_links` as an ``nx.Graph``."""
    return random_tree_links(num_nodes, seed=seed).to_networkx()
