"""The communication graph as one array table.

The paper's cost model (Section 2.1) asks two things of the communication
graph: is ``(u, v)`` a link, and who are ``u``'s neighbours.
:class:`LinkTable` answers both from one CSR layout (compressed sparse
rows): row ``r`` holds its neighbours in ``indices[indptr[r]:indptr[r + 1]]``
in ascending order, and every slot carries an alive flag.  A failed link is
two cleared flags plus a canonical ``(min, max)`` key in :attr:`dropped`; the
table never changes shape.

Rows are indexed by position in the sorted id list, which is the identity for
the ids ``0..n-1`` every generator in :mod:`repro.network.topology` emits.  A
graph with other ids converts once (:meth:`LinkTable.from_networkx`) and is
answered in its own ids.  The array consumers — the repair and election
array paths — need the identity layout and read :attr:`indptr`,
:attr:`indices` and :attr:`alive` directly.

Only :meth:`~repro.network.SensorNetwork.drop_link` and
:meth:`~repro.network.SensorNetwork.restore_link` should change a link, so
the network can invalidate what it derives from the table.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.exceptions import TopologyError

if TYPE_CHECKING:
    from networkx import Graph


class LinkTable:
    """Undirected links over ``num_nodes`` rows, as CSR with alive slots."""

    def __init__(
        self,
        num_nodes: int,
        low,
        high,
        ids: Iterable[int] | None = None,
    ) -> None:
        """Build the table from edge-endpoint row arrays.

        ``low[i] - high[i]`` is one link between two distinct rows; each
        unordered pair may appear once (a repeated pair or a self-loop raises
        :class:`~repro.exceptions.TopologyError`).  ``ids`` are the node ids
        of the rows in ascending order (default ``0..num_nodes-1``).
        """
        low = np.asarray(low, dtype=np.int64).ravel()
        high = np.asarray(high, dtype=np.int64).ravel()
        self.num_nodes = num_nodes
        # Both directions of every link, sorted by (tail, head): the rows
        # come out contiguous and each one ascending.
        keys = np.concatenate((low * num_nodes + high, high * num_nodes + low))
        keys.sort()
        tails, heads = np.divmod(keys, max(num_nodes, 1))
        # A repeated pair repeats both its keys and a self-loop's two keys
        # coincide, so either shows as two equal neighbouring keys.
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            tail, head = int(tails[repeated[0]]), int(heads[repeated[0]])
            if tail == head:
                raise TopologyError(f"row {tail} is linked to itself")
            raise TopologyError(f"rows {tail} and {head} are linked more than once")
        #: Row offsets: row ``r``'s slots are ``indptr[r]:indptr[r + 1]``.
        self.indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=num_nodes), out=self.indptr[1:])
        #: Neighbour row of every slot, ascending within a row.
        self.indices = heads
        #: Whether each slot's link is up (treat as read-only).
        self.alive = np.ones(heads.size, dtype=bool)
        if ids is None:
            self._ids = None
            self._row = None
        else:
            ids = list(ids)
            if ids == list(range(num_nodes)):
                self._ids = self._row = None
            else:
                self._ids = np.asarray(ids, dtype=np.int64)
                self._row = {node: row for row, node in enumerate(ids)}
        self._dropped: set[tuple[int, int]] = set()
        self._neighbors: dict[int, list[int]] = {}
        self._slot_keys = None

    @classmethod
    def from_networkx(cls, graph: Graph) -> "LinkTable":
        """Convert a networkx graph once.

        Self-loops are not links, and each unordered pair is one link
        however often it appears (both arcs of a ``DiGraph``, the parallel
        edges of a ``MultiGraph``).
        """
        ids = sorted(graph.nodes())
        row = {node: index for index, node in enumerate(ids)}
        pairs = np.array(
            [(row[u], row[v]) for u, v in graph.edges() if u != v], dtype=np.int64
        ).reshape(-1, 2)
        pairs.sort(axis=1)
        num_nodes = len(ids)
        keys = np.unique(pairs[:, 0] * num_nodes + pairs[:, 1])
        return cls(num_nodes, *np.divmod(keys, max(num_nodes, 1)), ids=ids)

    # ------------------------------------------------------------------ #
    # Ids and rows
    # ------------------------------------------------------------------ #
    @property
    def dense(self) -> bool:
        """Whether rows and node ids coincide (ids ``0..n-1``)."""
        return self._ids is None

    def node_ids(self) -> list[int]:
        """Node ids in ascending order."""
        if self._ids is None:
            return list(range(self.num_nodes))
        return self._ids.tolist()

    def __contains__(self, node_id: object) -> bool:
        return self.row_of(node_id) >= 0

    def row_of(self, node_id) -> int:
        """The row of ``node_id``, ``-1`` when it is not a node."""
        if self._row is not None:
            return self._row.get(node_id, -1)
        if isinstance(node_id, (int, np.integer)) and 0 <= node_id < self.num_nodes:
            return int(node_id)
        return -1

    def row_mask(self, node_ids: Iterable[int]):
        """A boolean row mask that is set exactly at ``node_ids``."""
        mask = np.zeros(self.num_nodes, dtype=bool)
        if self._row is None:
            mask[np.fromiter(node_ids, dtype=np.int64)] = True
        else:
            mask[[self._row[node] for node in node_ids]] = True
        return mask

    def ids_of(self, rows):
        """The node ids of a row array (the array itself when dense)."""
        return rows if self._ids is None else self._ids[rows]

    def rows_of(self, node_ids):
        """The rows of an array of known node ids (the array itself when
        dense)."""
        return node_ids if self._ids is None else np.searchsorted(self._ids, node_ids)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def neighbors(self, node_id: int) -> list[int]:
        """Alive neighbours of ``node_id`` in ascending order.

        Built on first request and cached per row until a link of the row
        changes, so a pass that touches few rows costs few rows.  The list
        is shared: do not mutate it.
        """
        cached = self._neighbors.get(node_id)
        if cached is not None:
            return cached
        row = self.row_of(node_id)
        if row < 0:
            raise TopologyError(f"node {node_id} is not in the link table")
        start, end = self.indptr[row], self.indptr[row + 1]
        heads = self.indices[start:end]
        if self._dropped:
            heads = heads[self.alive[start:end]]
        cached = self.ids_of(heads).tolist()
        self._neighbors[node_id] = cached
        return cached

    def has(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is an alive link (unknown ids are not)."""
        if u not in self:
            return False
        row = self.neighbors(u)
        index = bisect_left(row, v)
        return index < len(row) and row[index] == v

    def has_rows(self, u, v):
        """:meth:`has` over row arrays: whether each ``(u[i], v[i])`` is an
        alive link (rows must lie in ``0..num_nodes-1``).

        The slots are sorted by ``(tail, head)``, so their ``tail * n +
        head`` keys ascend and one ``searchsorted`` finds every pair.
        """
        keys = self._slot_keys
        if keys is None:
            # The table never changes shape, so the keys are built once.
            keys = self._slot_keys = self._tails() * self.num_nodes + self.indices
        wanted = np.asarray(u, dtype=np.int64) * self.num_nodes + np.asarray(
            v, dtype=np.int64
        )
        if not keys.size:
            return np.zeros(wanted.shape, dtype=bool)
        slots = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        return (keys[slots] == wanted) & self.alive[slots]

    def _tails(self):
        """The row of every slot."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))

    def edge_rows(self):
        """Alive links as ``(low, high)`` row arrays, ascending ``(low, high)``."""
        tails = self._tails()
        keep = tails < self.indices
        if self._dropped:
            keep &= self.alive
        return tails[keep], self.indices[keep]

    def edges(self):
        """Alive links as ``(low, high)`` id arrays, ascending ``(low, high)``."""
        low, high = self.edge_rows()
        return self.ids_of(low), self.ids_of(high)

    @property
    def num_edges(self) -> int:
        """The number of alive links."""
        return (self.indices.size >> 1) - len(self._dropped)

    @property
    def dropped(self) -> set[tuple[int, int]]:
        """Canonical ``(min, max)`` id keys of the links that are down
        (the live set: treat as read-only)."""
        return self._dropped

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def bfs(self, root: int, allowed=None):
        """Breadth-first search from ``root`` over alive links, by rows.

        One whole frontier per level.  A row's parent is its first claimant
        in queue order, and the next queue is ordered by (claimant position,
        row) — exactly a FIFO walk over ascending neighbour lists.
        ``allowed`` (a boolean row mask) keeps the search inside it.  Returns
        ``(order, parent, level_sizes)``: reached rows in BFS order, the
        parent row of each (``-1`` at the root) and the size of each level.
        """
        indptr, indices, alive = self.indptr, self.indices, self.alive
        seen = np.zeros(self.num_nodes, dtype=bool) if allowed is None else ~allowed
        seen[root] = True
        frontier = np.array([root], dtype=np.int64)
        orders = [frontier]
        parents = [np.array([-1], dtype=np.int64)]
        check_alive = bool(self._dropped)
        while True:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            ends = np.cumsum(counts)
            if not ends[-1]:
                break
            slots = np.arange(ends[-1], dtype=np.int64) + np.repeat(
                starts - ends + counts, counts
            )
            heads = indices[slots]
            keep = ~seen[heads]
            if check_alive:
                keep &= alive[slots]
            heads = heads[keep]
            if not heads.size:
                break
            claimants = np.repeat(frontier, counts)[keep]
            first = np.unique(heads, return_index=True)[1]
            first.sort()
            frontier = heads[first]
            seen[frontier] = True
            orders.append(frontier)
            parents.append(claimants[first])
        return (
            np.concatenate(orders),
            np.concatenate(parents),
            [level.size for level in orders],
        )

    # ------------------------------------------------------------------ #
    # Mutation (through SensorNetwork.drop_link / restore_link)
    # ------------------------------------------------------------------ #
    def _slots(self, u: int, v: int) -> tuple[int, int]:
        """The two slots of link ``(u, v)``; raises if it is no link at all."""
        ru, rv = self.row_of(u), self.row_of(v)
        found = []
        if ru >= 0 and rv >= 0:
            for tail, head in ((ru, rv), (rv, ru)):
                start, end = self.indptr[tail], self.indptr[tail + 1]
                slot = start + int(np.searchsorted(self.indices[start:end], head))
                if slot < end and self.indices[slot] == head:
                    found.append(slot)
        if len(found) != 2:
            raise TopologyError(f"({u}, {v}) is not a link of the table")
        return found[0], found[1]

    def _set(self, u: int, v: int, up: bool) -> None:
        key = (u, v) if u <= v else (v, u)
        if (key in self._dropped) != up:
            state = "down" if up else "up"
            raise TopologyError(f"link {key} is not {state}")
        self.alive[list(self._slots(u, v))] = up
        if up:
            self._dropped.discard(key)
        else:
            self._dropped.add(key)
        self._neighbors.pop(u, None)
        self._neighbors.pop(v, None)

    def drop(self, u: int, v: int) -> None:
        """Take an alive link down; raises if it is down or no link."""
        self._set(u, v, up=False)

    def restore(self, u: int, v: int) -> None:
        """Bring a dropped link back; raises if it is not down."""
        self._set(u, v, up=True)

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> Graph:
        """A fresh ``nx.Graph`` of the alive links (ascending rows); imports
        networkx on call."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.node_ids())
        low, high = self.edges()
        graph.add_edges_from(zip(low.tolist(), high.tolist()))
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"LinkTable(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"dropped={len(self._dropped)})"
        )


def as_link_table(topology) -> LinkTable:
    """``topology`` as a :class:`LinkTable` (an ``nx.Graph`` converts once).

    A table is returned as is; networkx is imported only for other input.
    """
    if isinstance(topology, LinkTable):
        return topology
    import networkx as nx

    if isinstance(topology, nx.Graph):
        return LinkTable.from_networkx(topology)
    raise TopologyError(
        f"expected a LinkTable or a networkx Graph, got {type(topology).__name__}"
    )
