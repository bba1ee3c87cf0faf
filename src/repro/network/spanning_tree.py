"""Spanning-tree construction.

The TAG-style protocols of Fact 2.1 run over a spanning tree rooted at the
query node.  The paper remarks that a *bounded-degree* spanning tree is
required to keep the individual communication complexity low (otherwise a hub
node pays for all of its children's traffic).

Two constructions are provided, both over a
:class:`~repro.network.links.LinkTable` (an ``nx.Graph`` converts once):
the plain breadth-first-search tree (``degree_bound=None``: minimal depth,
but the degree can be as large as the graph degree — think of the star
topology), and a heuristic that starts from the BFS tree and re-parents
excess children to nearby tree nodes with spare capacity, using only edges
of the original graph.  When the graph itself cannot support the requested
bound (e.g. the star), the heuristic falls back to the smallest feasible
degree, so experiments can quantify the cost of hub nodes (ablation E9 in
DESIGN.md).

Both produce parent arrays (:func:`spanning_parents`) for the one tree
constructor, :meth:`~repro.network.FlatTree.from_arrays` (:func:`build_tree`).
:class:`SpanningTree` is a frozen dictionary view of a flat tree, kept only
for ``benchmarks/perf/layers.py``; collapse step 1 deletes it.
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


# Kept only for benchmarks/perf/layers.py; collapse step 1 deletes it.
@dataclass
class SpanningTree:
    """A rooted spanning tree described by parent/children maps."""

    root: int
    parent: dict[int, int | None]
    children: dict[int, list[int]]
    depth: dict[int, int]

    @classmethod
    def from_flat(cls, flat: FlatTree) -> "SpanningTree":
        """The frozen dictionaries of ``flat``: keys in canonical order,
        children ascending, every map and child list read-only (mutation
        raises ``TypeError``).  O(n)."""
        ids = flat.node_ids
        child_ids = flat.ids_array[flat.child_index].tolist()
        children = {
            node: _FrozenList(child_ids[start:end])
            for node, start, end in zip(
                ids, flat.child_start.tolist(), flat.child_end.tolist()
            )
        }
        depth = dict(zip(ids, flat.depth.tolist()))
        return cls(
            root=flat.root_id,
            parent=MappingProxyType(flat.parent_map()),
            children=MappingProxyType(children),
            depth=MappingProxyType(depth),
        )

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


def spanning_parents(graph, root: int = 0, degree_bound: int | None = None, members=None):
    """A spanning tree as ``(node_ids, parent_ids)``, two int64 arrays in
    BFS discovery order (the root first, its parent entry ``-1``).

    ``graph`` is a :class:`~repro.network.links.LinkTable` or an
    ``nx.Graph``.  The search runs one whole frontier per level
    (:meth:`~repro.network.links.LinkTable.bfs`), which picks the parents a
    FIFO walk over ascending neighbours picks.  Without ``members`` the tree
    must reach every node, which is the connectivity check; with a boolean
    row mask ``members`` it spans the component of ``root`` inside it.  A
    ``degree_bound`` applies :func:`_bound_degree`'s heuristic.
    """
    if degree_bound is not None:
        require_positive(degree_bound, "degree_bound")
        if degree_bound < 2:
            raise TopologyError("degree_bound must be at least 2 for a rooted tree")
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


def _bound_degree(links, node_ids: list[int], parent_ids, max_degree: int):
    """The bounded-degree heuristic over BFS parents; parent ids come back in
    the order of ``node_ids``.

    Any node with too many children tries to hand excess children over to
    graph-neighbours that are already in the tree, are not descendants of
    the child being moved, and still have spare capacity.  Moves only
    along links, and never under a descendant, so the result is a spanning
    tree of the same nodes; the bound is best-effort because some graphs
    (e.g. the star) admit no low-degree spanning tree at all."""
    parent: dict[int, int | None] = dict(zip(node_ids, parent_ids.tolist()))
    parent[node_ids[0]] = None
    children: dict[int, list[int]] = {node: [] for node in node_ids}
    for node in node_ids[1:]:
        children[parent[node]].append(node)

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
