"""Spanning-tree construction, and the dictionary view of a tree.

The TAG-style protocols of Fact 2.1 run over a spanning tree rooted at the
query node.  The paper remarks that a *bounded-degree* spanning tree is
required to keep the individual communication complexity low (otherwise a hub
node pays for all of its children's traffic).

Two constructions are provided, both over a
:class:`~repro.network.links.LinkTable` (an ``nx.Graph`` converts once):

``bfs_tree``
    Plain breadth-first-search tree — minimal depth, but the degree can be as
    large as the graph degree (think of the star topology).

``bounded_degree_tree``
    A heuristic that starts from the BFS tree and re-parents excess children
    to nearby tree nodes with spare capacity, using only edges of the original
    graph.  When the graph itself cannot support the requested bound (e.g. the
    star), the construction falls back to the smallest feasible degree and
    reports it, so experiments can quantify the cost of hub nodes (ablation
    E9 in DESIGN.md).

Both produce parent arrays (:func:`spanning_parents`) for the one tree
constructor, :meth:`~repro.network.FlatTree.from_arrays` (:func:`build_tree`).
:class:`SpanningTree` is the dictionary view of a flat tree
(:meth:`SpanningTree.from_flat`), for the per-edge reference paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from repro._util.validation import require_positive
from repro.exceptions import TopologyError
from repro.network.flat_tree import FlatTree
from repro.network.links import as_link_table


class _FrozenList(list):
    """A child list of a frozen tree view: reads like a list, mutation raises."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a frozen tree view cannot be modified; see set_tree")

    append = extend = insert = remove = pop = clear = sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse


@dataclass
class SpanningTree:
    """A rooted spanning tree described by parent/children maps."""

    root: int
    parent: dict[int, int | None]
    children: dict[int, list[int]]
    depth: dict[int, int]

    @classmethod
    def from_flat(cls, flat: FlatTree, frozen: bool = False) -> "SpanningTree":
        """The dictionaries of ``flat``: keys in canonical order, children
        ascending.  ``frozen`` makes every map and child list read-only
        (mutation raises ``TypeError``) — the form ``SensorNetwork.tree``
        serves.  O(n)."""
        ids = flat.node_ids
        child_ids = flat.ids_array[flat.child_index].tolist()
        kids = _FrozenList if frozen else list
        children = {
            node: kids(child_ids[start:end])
            for node, start, end in zip(
                ids, flat.child_start.tolist(), flat.child_end.tolist()
            )
        }
        parent = flat.parent_map()
        depth = dict(zip(ids, flat.depth.tolist()))
        if frozen:
            parent, children, depth = map(MappingProxyType, (parent, children, depth))
        return cls(root=flat.root_id, parent=parent, children=children, depth=depth)

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    @property
    def height(self) -> int:
        """Maximum depth of any node (root has depth 0)."""
        return max(self.depth.values()) if self.depth else 0

    def max_degree(self) -> int:
        """Maximum tree degree (children count plus one for the parent edge)."""
        best = 0
        for node, kids in self.children.items():
            degree = len(kids) + (0 if self.parent[node] is None else 1)
            best = max(best, degree)
        return best

    def nodes_bottom_up(self) -> list[int]:
        """Nodes ordered so every node appears before its parent.

        The order is *canonical* — deepest level first, ascending node id
        within a level — so two trees with equal parent/depth content
        traverse (and therefore charge radio transmissions) identically, no
        matter how their dictionaries were built.  The incremental fault
        repair relies on this: its batched and per-edge paths construct the
        same repaired tree through different code, and every later sweep
        must stay bit-for-bit ledger-equivalent between them.
        """
        depth = self.depth
        return sorted(self.parent, key=lambda node: (-depth[node], node))

    def nodes_top_down(self) -> list[int]:
        """Nodes ordered so every node appears after its parent.

        Canonical like :meth:`nodes_bottom_up`: by level, ascending node id
        within a level.
        """
        depth = self.depth
        return sorted(self.parent, key=lambda node: (depth[node], node))

    def subtree_nodes(self, node: int) -> list[int]:
        """All nodes in the subtree rooted at ``node`` (including it)."""
        result = []
        stack = [node]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self.children[current])
        return result

    def path_to_root(self, node: int) -> list[int]:
        """The node sequence from ``node`` up to (and including) the root."""
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def check_invariants(self) -> None:
        """Graph-free structural validation: parent/children/depth consistency.

        Checks that the three maps agree on the node set, that parent pointers
        and child lists mirror each other exactly (every non-root node appears
        in precisely one child list — its parent's), and that depths increase
        by one along every edge with the root at depth zero.  Depth consistency
        plus a parent for every non-root node implies the structure is an
        acyclic tree reaching the root, so this runs in O(n) with no graph.

        :class:`~repro.network.flat_tree.FlatTree.from_spanning_tree` calls
        this before freezing a tree into arrays, so a malformed hand-built
        tree fails fast instead of corrupting batched sweeps.
        """
        nodes = set(self.parent)
        if set(self.children) != nodes or set(self.depth) != nodes:
            raise TopologyError("parent/children/depth maps cover different nodes")
        if self.root not in nodes:
            raise TopologyError(f"root {self.root} is not a tree node")
        if self.parent[self.root] is not None:
            raise TopologyError("root must have no parent")
        if self.depth[self.root] != 0:
            raise TopologyError("root must have depth 0")
        listed_parent: dict[int, int] = {}
        for node, kids in self.children.items():
            for child in kids:
                if child in listed_parent:
                    raise TopologyError(
                        f"node {child} appears in more than one child list"
                    )
                listed_parent[child] = node
        if self.root in listed_parent:
            raise TopologyError("root appears in a child list")
        for node, parent in self.parent.items():
            if parent is None:
                if node != self.root:
                    raise TopologyError(f"non-root node {node} has no parent")
                continue
            if parent not in nodes:
                raise TopologyError(
                    f"parent {parent} of node {node} is not a tree node"
                )
            if listed_parent.get(node) != parent:
                raise TopologyError(
                    f"child list of {parent} does not contain {node}"
                )
            if self.depth[node] != self.depth[parent] + 1:
                raise TopologyError(
                    f"depth of {node} is {self.depth[node]}, expected "
                    f"{self.depth[parent] + 1} (one below parent {parent})"
                )

    def validate(self, graph, covering: set[int] | None = None) -> None:
        """Check that this is a spanning tree of ``graph`` rooted at ``root``.

        ``graph`` is a :class:`~repro.network.links.LinkTable` or an
        ``nx.Graph``; only alive links count.  ``covering`` overrides the
        node set the tree must span; the default is every graph node.  A
        tree repaired after crashes spans only the alive, root-connected
        subset, which is what the fault test-suite passes here.
        :meth:`check_invariants` proves the structure an acyclic tree
        reaching the root, so this is O(n).
        """
        self.check_invariants()
        links = as_link_table(graph)
        expected = set(links.node_ids()) if covering is None else set(covering)
        if set(self.parent) != expected:
            raise TopologyError("tree does not span the expected node set")
        for node, parent in self.parent.items():
            if parent is not None and not links.has(node, parent):
                raise TopologyError(
                    f"tree edge ({node}, {parent}) is not an edge of the graph"
                )


def tree_from_parents(root: int, parent: dict[int, int | None]) -> SpanningTree:
    """Build a :class:`SpanningTree` from a parent map (children sorted, depths
    recomputed) through :meth:`FlatTree.from_parents`.  Raises
    :class:`~repro.exceptions.TopologyError` when the map does not describe
    one tree rooted at ``root`` — a cycle, a parent that is no node, a
    missing root."""
    return SpanningTree.from_flat(FlatTree.from_parents(root, parent))


def spanning_parents(graph, root: int = 0, degree_bound: int | None = None, members=None):
    """A spanning tree as ``(node_ids, parent_ids)``, two int64 arrays in
    BFS discovery order (the root first, its parent entry ``-1``).

    ``graph`` is a :class:`~repro.network.links.LinkTable` or an
    ``nx.Graph``.  The search runs one whole frontier per level
    (:meth:`~repro.network.links.LinkTable.bfs`), which picks the parents a
    FIFO walk over ascending neighbours picks.  Without ``members`` the tree
    must reach every node, which is the connectivity check; with a boolean
    row mask ``members`` it spans the component of ``root`` inside it.  A
    ``degree_bound`` applies :func:`bounded_degree_tree`'s heuristic.
    """
    if degree_bound is not None:
        require_positive(degree_bound, "max_degree")
        if degree_bound < 2:
            raise TopologyError("max_degree must be at least 2 for a rooted tree")
    links = as_link_table(graph)
    if root not in links:
        raise TopologyError(f"root {root} is not a node of the graph")
    order, parents, _ = links.bfs(links.row_of(root), members)
    if members is None and order.size != links.num_nodes:
        raise TopologyError("cannot build a spanning tree of a disconnected graph")
    node_ids = links.ids_of(order)
    parent_ids = np.concatenate(([-1], links.ids_of(parents[1:])))
    if degree_bound is not None:
        parent_ids = _bound_degree(links, node_ids.tolist(), parent_ids, degree_bound)
    return node_ids, parent_ids


def build_tree(graph, root: int = 0, degree_bound: int | None = None, members=None) -> FlatTree:
    """The :class:`~repro.network.FlatTree` of :func:`spanning_parents`."""
    node_ids, parent_ids = spanning_parents(graph, root, degree_bound, members)
    return FlatTree.from_arrays(parent_ids, root, node_ids=node_ids)


def bfs_tree(graph, root: int = 0, members=None) -> SpanningTree:
    """Breadth-first spanning tree rooted at ``root`` (see
    :func:`spanning_parents` for ``graph`` and ``members``)."""
    return SpanningTree.from_flat(build_tree(graph, root, None, members))


def bounded_degree_tree(
    graph, root: int = 0, max_degree: int = 3, members=None
) -> SpanningTree:
    """Spanning tree whose degree is heuristically capped at ``max_degree``.

    Starting from the BFS tree, any node with too many children tries to hand
    excess children over to graph-neighbours that are already in the tree, are
    not descendants of the child being moved, and still have spare capacity.
    The resulting tree is always a valid spanning tree; the degree bound is
    best-effort because some graphs (e.g. the star) admit no low-degree
    spanning tree at all.  ``members`` restricts the tree as in
    :func:`bfs_tree`.
    """
    return SpanningTree.from_flat(build_tree(graph, root, max_degree, members))


def _bound_degree(links, node_ids: list[int], parent_ids, max_degree: int):
    """The bounded-degree heuristic over BFS parents; parent ids come back in
    the order of ``node_ids``.  Moves only along links, and never under a
    descendant, so the result is a spanning tree of the same nodes."""
    flat = FlatTree.from_arrays(parent_ids, node_ids[0], node_ids=node_ids)
    children = SpanningTree.from_flat(flat).children
    parent: dict[int, int | None] = dict(zip(node_ids, parent_ids.tolist()))
    parent[node_ids[0]] = None

    def degree_of(node: int, children: dict[int, list[int]]) -> int:
        return len(children[node]) + (0 if parent[node] is None else 1)

    def descendants(node: int) -> set[int]:
        result = set()
        stack = [node]
        while stack:
            current = stack.pop()
            result.add(current)
            stack.extend(children[current])
        return result

    changed = True
    iteration_guard = 4 * len(parent) + 16
    while changed and iteration_guard > 0:
        changed = False
        iteration_guard -= 1
        for node in list(parent):  # BFS discovery order
            while degree_of(node, children) > max_degree and children[node]:
                moved = False
                # Try to re-parent the deepest-listed child first so shallow
                # structure near the root is preserved.
                for child in sorted(children[node], reverse=True):
                    forbidden = descendants(child)
                    candidates = [
                        neighbor
                        for neighbor in links.neighbors(child)
                        if neighbor in parent
                        and neighbor not in forbidden
                        and neighbor != node
                        and degree_of(neighbor, children) < max_degree
                    ]
                    if not candidates:
                        continue
                    new_parent = min(
                        candidates, key=lambda cand: degree_of(cand, children)
                    )
                    children[node].remove(child)
                    children[new_parent].append(child)
                    parent[child] = new_parent
                    moved = True
                    changed = True
                    break
                if not moved:
                    break
    parent[node_ids[0]] = -1
    return np.fromiter(parent.values(), dtype=np.int64, count=len(parent))
