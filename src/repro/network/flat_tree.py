"""The spanning tree, as flat arrays.

:class:`FlatTree` is the one representation of a network's rooted spanning
tree: ``SensorNetwork.flat_tree`` owns it, every tree builder produces it
from parent arrays (:meth:`FlatTree.from_arrays`), and the repair installs
a new one through ``SensorNetwork.set_tree``.  Every reader — the batched
sweeps and the per-edge reference paths alike — reads this type.
The arrays are indexed by a *canonical index* — the node's position in the
top-down level order (by depth, ascending id within a level) — so the
batched protocol implementations can sweep whole levels with array indexing
only:

* ``parent[i]`` is the canonical index of node ``i``'s parent (``-1`` at the
  root, which always has canonical index 0),
* the children of node ``i`` are ``child_index[child_start[i]:child_end[i]]``,
  ascending by id (so combine orders match the per-edge traversals exactly),
* ``bottom_up`` lists canonical indices deepest level first, ascending id
  within a level (:meth:`FlatTree.nodes_bottom_up`), and the canonical
  order itself is :meth:`FlatTree.nodes_top_down`,
* ``level_spans[d]`` is the half-open span of depth-``d`` nodes in canonical
  order, so level sweeps are contiguous slices,
* ``up_links`` / ``down_links`` are the tree's edge sequences as
  ``(sender, receiver)`` node-id pairs, in exactly the order the per-edge
  convergecast and broadcast sweeps transmit them — computed on first use
  and then shared, so full-tree batched sweeps ship a ready-made link list
  to ``SensorNetwork.send_batch`` while repair-heavy runs that never sweep
  the full tree do not pay for them; ``up_link_array`` / ``down_link_array``
  are the same sweeps as ``(k, 2)`` int64 arrays, the form ``send_batch``
  charges without a per-link loop,
* ``preorder`` is ``(order, start, size)``: a depth-first preorder of the
  tree (children in ``child_index`` order), ``order[i]`` the canonical index
  of the ``i``-th node visited, and node ``p``'s subtree exactly the
  preorder span ``order[start[p]:start[p] + size[p]]`` — so a subtree
  aggregate of every node is one ``cumsum`` or ``ufunc.reduceat`` over
  those spans (:func:`~repro.protocols.convergecast.subtree_sums`: COUNT,
  SUM, AVG, exact COUNT DISTINCT; MIN and MAX),
* ``ancestors`` is the binary-lifting table (``ancestors[j, p]``, node
  ``p``'s ``2**j``-th ancestor), from which
  :meth:`FlatTree.lowest_common_ancestors` finds the meeting point of
  many node pairs in one array pass per row.

**Representation.**  The structural arrays — ``parent``, ``depth``,
``child_start``, ``child_end``, ``child_index``, ``bottom_up`` — are
contiguous numpy ``int64`` buffers, which is what lets the vectorized
execution path sweep a million-node level as one array expression.
Everything that crosses back into id-keyed code — ``node_ids``,
``level_spans``, ``up_links``/``down_links``, :meth:`parent_id` — is built
from Python ints, so ledgers, radios and traces never see a numpy scalar.
The per-edge reference paths walk the tree node by node instead
(:meth:`nodes_top_down`, :meth:`nodes_bottom_up`, :meth:`children_of`,
:meth:`parent_map`) and never read the link lists or ``preorder`` the
batched paths charge from, which is how the differential oracle
(``tests/test_oracle.py``) stays bit-for-bit meaningful.

The representation is immutable by convention: a tree change installs a
*new* instance, never edits one, and every batched traversal shares the
installed one.  Because instances are immutable, the lazy caches —
``up_links``/``down_links``, their ``up_link_array``/``down_link_array``
forms, ``preorder`` and ``ancestors`` — live on the instance:
:meth:`rewire` returns a new ``FlatTree`` with every cache unset, so a
rewire can never serve stale link lists, subtree spans or ancestors to a
subsequent sweep (``tests/test_vectorized.py``
pins this with a rewire-then-sweep regression test).  Fault repair is the
one producer of *slightly different* trees at high frequency, so it does not
rebuild from scratch: :meth:`FlatTree.rewire` re-spans the arrays around a
set of pointer flips, removals and insertions in one linear pass — no
re-validation, no depth sort — and the repair installs the result via
:meth:`~repro.network.SensorNetwork.set_tree`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, TopologyError

if TYPE_CHECKING:
    from repro.network.spanning_tree import SpanningTree

#: Structural array slots, in canonical order (used by ``to_lists``).
_ARRAY_SLOTS = (
    "parent",
    "depth",
    "child_start",
    "child_end",
    "child_index",
    "bottom_up",
)


class FlatTree:
    """A rooted spanning tree as canonical-order arrays."""

    __slots__ = (
        "root_id",
        "num_nodes",
        "height",
        "node_ids",
        "parent",
        "depth",
        "child_start",
        "child_end",
        "child_index",
        "bottom_up",
        "level_spans",
        "_index",
        "_ids_array",
        "_position_table",
        "_up_links",
        "_up_link_array",
        "_down_links",
        "_down_link_array",
        "_preorder",
        "_ancestors",
    )

    def __init__(
        self,
        root_id: int,
        node_ids: list[int],
        parent,
        depth,
        child_start,
        child_end,
        child_index,
        bottom_up,
        level_spans: list[tuple[int, int]],
        ids_array=None,
        position_table=None,
    ) -> None:
        """Adopt already-canonical structural arrays as int64 buffers.

        Not a builder: :meth:`from_arrays` (or :meth:`from_parents` /
        :meth:`rewire`) derives the canonical arrays and calls this.
        ``ids_array`` / ``position_table`` pre-fill those lazy views when
        the producer already holds them.
        """
        self.root_id = root_id
        self.num_nodes = len(node_ids)
        self.height = len(level_spans) - 1 if level_spans else 0
        self.node_ids = node_ids
        self.level_spans = level_spans
        self.parent = np.ascontiguousarray(parent, dtype=np.int64)
        self.depth = np.ascontiguousarray(depth, dtype=np.int64)
        self.child_start = np.ascontiguousarray(child_start, dtype=np.int64)
        self.child_end = np.ascontiguousarray(child_end, dtype=np.int64)
        self.child_index = np.ascontiguousarray(child_index, dtype=np.int64)
        self.bottom_up = np.ascontiguousarray(bottom_up, dtype=np.int64)
        self._index = None
        self._ids_array = ids_array
        self._position_table = position_table
        self._up_links = None
        self._up_link_array = None
        self._down_links = None
        self._down_link_array = None
        self._preorder = None
        self._ancestors = None

    # ------------------------------------------------------------------ #
    # Derived views (lazy, immutable once built)
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> dict[int, int]:
        """Node id → canonical position.  Built lazily: the vectorized path
        never touches it, and at a million nodes the dict alone costs more
        to build than a whole fused epoch."""
        if self._index is None:
            self._index = dict(zip(self.node_ids, range(self.num_nodes)))
        return self._index

    @property
    def ids_array(self):
        """``node_ids`` as an int64 buffer.

        The vectorized kernels use it to translate canonical positions to
        node ids wholesale (``ids_array[positions]``) when charging ledgers.
        """
        if self._ids_array is None:
            self._ids_array = np.asarray(self.node_ids, dtype=np.int64)
        return self._ids_array

    @property
    def position_table(self):
        """Node id → canonical position as one int64 array.

        ``table[node_id]`` is the node's position, ``-1`` for an id below the
        largest one that is not in the tree.  The array counterpart of
        :attr:`index` for fields with dense non-negative ids — the table is
        ``max(id) + 1`` long — and the one id→position table the array
        paths share: :meth:`rewire`, the fast repair and election, and the
        streaming column sweep's re-alignment all read it.
        """
        if self._position_table is None:
            ids = self.ids_array
            if ids.size and int(ids.min()) < 0:
                raise ConfigurationError(
                    "FlatTree.position_table requires non-negative node ids"
                )
            table = np.full(int(ids.max()) + 1 if ids.size else 0, -1, dtype=np.int64)
            table[ids] = np.arange(self.num_nodes, dtype=np.int64)
            self._position_table = table
        return self._position_table

    def positions_of(self, node_ids):
        """Canonical positions of an int64 id array, ``-1`` where the id is
        not in the tree (see :attr:`position_table`)."""
        table = self.position_table
        node_ids = np.asarray(node_ids, dtype=np.int64)
        inside = (node_ids >= 0) & (node_ids < table.size)
        if bool(inside.all()):
            return table[node_ids]
        positions = np.full(node_ids.shape, -1, dtype=np.int64)
        positions[inside] = table[node_ids[inside]]
        return positions

    @property
    def up_links(self) -> list[tuple[int, int]]:
        """Every child→parent edge, in the order the bottom-up sweep sends.

        Tree edges are static, so the link sequence is computed once on
        first use and shared by every traversal instead of rebuilt per
        protocol run.  Always plain ``(int, int)`` tuples — this is the
        id-level view the per-edge reference path and the radio models
        consume.
        """
        if self._up_links is None:
            links = self.up_link_array
            self._up_links = list(zip(links[:, 0].tolist(), links[:, 1].tolist()))
        return self._up_links

    @property
    def up_link_array(self):
        """:attr:`up_links` as one ``(k, 2)`` int64 array.

        The form :meth:`SensorNetwork.send_batch` charges without a per-link
        loop; treat as read-only — it is shared like the list.
        """
        if self._up_link_array is None:
            ids = self.ids_array
            positions = self.senders
            self._up_link_array = np.stack(
                (ids[positions], ids[self.parent[positions]]), axis=1
            )
        return self._up_link_array

    @property
    def senders(self):
        """Canonical indices of the up-sweep's senders, in ``up_links``
        order: ``bottom_up`` without the root, which comes last."""
        return self.bottom_up[:-1]

    @property
    def down_links(self) -> list[tuple[int, int]]:
        """Every parent→child edge, in the order the top-down sweep sends."""
        if self._down_links is None:
            links = self.down_link_array
            self._down_links = list(zip(links[:, 0].tolist(), links[:, 1].tolist()))
        return self._down_links

    @property
    def down_link_array(self):
        """:attr:`down_links` as one ``(k, 2)`` int64 array (read-only, shared
        like the list): ``child_index`` lists every node's children, parents
        in canonical order."""
        if self._down_link_array is None:
            ids = self.ids_array
            children = self.child_index
            self._down_link_array = np.stack(
                (ids[self.parent[children]], ids[children]), axis=1
            )
        return self._down_link_array

    @property
    def preorder(self):
        """``(order, start, size)``: the depth-first preorder and every node's
        subtree span in it (see the module docstring).

        Ranks the tree's Euler tour — event ``2p`` enters node ``p``,
        ``2p + 1`` leaves it — by pointer doubling, so a 50,000-deep line
        takes as few whole-array passes as a star, and nothing recurses.
        Entering ``p`` comes after ``start[p]`` entries and
        ``start[p] - depth[p]`` exits, and its subtree's ``2 size[p] - 2``
        events lie between its entry and its exit.  Computed on first use
        and shared.
        """
        if self._preorder is None:
            num_nodes = self.num_nodes
            positions = np.arange(num_nodes, dtype=np.int64)
            children = self.child_index
            parent = self.parent
            # After entering p: its first child, or leaving p if it has none.
            # After leaving p: its next sibling, else leaving its parent; the
            # root's exit (event 1) ends the tour and points at itself.
            step = np.empty(2 * num_nodes, dtype=np.int64)
            has_children = self.child_end > self.child_start
            step[0::2] = 2 * positions + 1
            step[0::2][has_children] = 2 * children[self.child_start[has_children]]
            step[1::2] = 2 * parent + 1
            step[1] = 1
            slots = np.arange(children.size - 1, dtype=np.int64)
            followed = slots + 1 < self.child_end[parent[children[:-1]]]
            step[2 * children[:-1][followed] + 1] = 2 * children[slots[followed] + 1]
            # Events left until the end, by pointer doubling.
            remaining = np.ones(2 * num_nodes, dtype=np.int64)
            remaining[1] = 0
            while bool((step != 1).any()):
                remaining = remaining + remaining[step]
                step = step[step]
            rank = 2 * num_nodes - 1 - remaining
            start = (rank[0::2] + self.depth) // 2
            order = np.empty(num_nodes, dtype=np.int64)
            order[start] = positions
            self._preorder = (order, start, (rank[1::2] - rank[0::2] + 1) // 2)
        return self._preorder

    @property
    def ancestors(self):
        """The binary-lifting table, a ``(k, num_nodes)`` int64 array:
        ``ancestors[j, p]`` is the canonical index of node ``p``'s
        ``2**j``-th ancestor, the root (0) when ``p`` has fewer.  ``2**k``
        reaches the height, so any climb shorter than the height is one
        pass per row.  Computed on first use and shared."""
        if self._ancestors is None:
            up = np.maximum(self.parent, 0)
            rows = [up]
            while 1 << len(rows) < self.height:
                up = up[up]
                rows.append(up)
            self._ancestors = np.stack(rows)
        return self._ancestors

    def lowest_common_ancestors(self, first, second):
        """The lowest common ancestor of every pair ``(first[i],
        second[i])`` of canonical indices, where ``first[i]`` comes before
        ``second[i]`` in :attr:`preorder`.

        An ancestor of ``second[i]`` contains ``first[i]`` exactly when its
        subtree starts at or before it.  So ``second[i]`` climbs, by
        :attr:`ancestors`, to its highest ancestor that starts after
        ``first[i]``, whose parent is the answer: one array pass per table
        row, whatever the pairs.
        """
        start = self.preorder[1]
        bound = start[first]
        node = np.asarray(second, dtype=np.int64)
        for up in self.ancestors[::-1]:
            higher = up[node]
            node = np.where(start[higher] > bound, higher, node)
        return self.parent[node]

    # Kept only for benchmarks/perf/layers.py; collapse step 1 deletes it.
    @classmethod
    def from_spanning_tree(cls, tree: SpanningTree) -> "FlatTree":
        """Build the flat representation after validating ``tree``'s structure.

        Runs :meth:`SpanningTree.check_invariants` first — parent pointers,
        child lists and depths must be mutually consistent — so a malformed
        hand-built tree raises :class:`~repro.exceptions.TopologyError` here
        instead of silently corrupting every batched sweep built on the
        arrays.  The arrays come from the parent map alone.
        """
        tree.check_invariants()
        return cls.from_parents(tree.root, tree.parent)

    @classmethod
    def from_parents(
        cls, root_id: int, parent: Mapping[int, int | None]
    ) -> "FlatTree":
        """:meth:`from_arrays` over a node → parent-id map (``None`` at the
        root, and only there); raises
        :class:`~repro.exceptions.TopologyError` otherwise."""
        if parent.get(root_id, 0) is not None:
            raise TopologyError(f"root {root_id} must be a node with no parent")
        parent_ids = list(parent.values())
        if parent_ids.count(None) != 1:
            raise TopologyError("exactly one node (the root) may have no parent")
        return cls.from_arrays(
            [root_id if node is None else node for node in parent_ids],
            root_id,
            node_ids=list(parent),
        )

    @classmethod
    def from_arrays(
        cls,
        parent_ids: Sequence[int],
        root_id: int = 0,
        node_ids: Sequence[int] | None = None,
    ) -> "FlatTree":
        """Build a flat tree from parent ids: the one tree constructor.

        ``parent_ids[i]`` is the parent *id* of node ``node_ids[i]`` (by
        default the dense range ``0..n-1``); the root's entry is ignored
        (conventionally ``-1``).  It never materialises per-node dicts, so a
        1M-node balanced tree flattens in a quarter second.  Depths are derived
        by pointer doubling, which also catches cycles; ids are
        range-checked, so a parent that is no node, a duplicate id or a
        missing root raise :class:`~repro.exceptions.TopologyError`.  The
        canonical order is by depth, ascending id within a level.
        """
        parents = np.asarray(parent_ids, dtype=np.int64).ravel()
        num_nodes = parents.size
        if node_ids is None:
            node_ids = np.arange(num_nodes, dtype=np.int64)
        ids = np.asarray(node_ids, dtype=np.int64).ravel()
        if num_nodes == 0 or ids.size != num_nodes:
            raise TopologyError("a FlatTree needs nodes, and one parent id per node")
        # Rows are ascending ids: every parent id, and the root, become rows.
        sorter = np.argsort(ids, kind="stable")
        ids, wanted = ids[sorter], np.append(parents[sorter], root_id)
        located = np.searchsorted(ids, wanted).clip(max=num_nodes - 1)
        found = ids[located] == wanted
        root = int(located[-1])
        if not found[-1]:
            raise TopologyError(f"root {root_id} is not a tree node")
        parents, found[root] = located[:-1], True
        if not found.all() or bool((ids[1:] == ids[:-1]).any()):
            raise TopologyError("a parent id is no node of the tree, or ids repeat")
        parents[root] = root

        # Depth by pointer doubling: ``hop[i]`` is an ancestor of ``i`` and
        # ``depth_of_row[i]`` the hop count to it; squaring the hop pointer
        # each round grounds every node at the root in O(log height) whole-
        # array passes.  A cycle never grounds and is caught by the bound.
        rows = np.arange(num_nodes, dtype=np.int64)
        depth_of_row = (rows != root).astype(np.int64)
        hop = parents
        for _ in range(num_nodes.bit_length() + 2):
            if bool((hop == root).all()):
                break
            depth_of_row = depth_of_row + depth_of_row[hop]
            hop = hop[hop]
        else:
            raise TopologyError("parent pointers do not reach the root (cycle?)")

        order = np.lexsort((rows, depth_of_row))
        depth = depth_of_row[order]
        pos_of_row = np.empty(num_nodes, dtype=np.int64)
        pos_of_row[order] = rows
        parent = pos_of_row[parents[order]]
        parent[0] = -1

        level_sizes = np.bincount(depth)
        ends = np.cumsum(level_sizes)
        starts = ends - level_sizes
        child_counts = np.bincount(parent[1:], minlength=num_nodes)
        child_end = np.cumsum(child_counts)
        # Deepest level first, canonical order within a level.
        bottom_up = np.empty(num_nodes, dtype=np.int64)
        bottom_up[num_nodes - ends[depth] + rows - starts[depth]] = rows
        ordered_ids = ids[order]
        return cls(
            root_id=root_id,
            node_ids=ordered_ids.tolist(),
            parent=parent,
            depth=depth,
            child_start=child_end - child_counts,
            child_end=child_end,
            child_index=np.argsort(parent[1:], kind="stable") + 1,
            bottom_up=bottom_up,
            level_spans=list(zip(starts.tolist(), ends.tolist())),
            ids_array=ordered_ids,
        )

    # ------------------------------------------------------------------ #
    # Incremental re-span
    # ------------------------------------------------------------------ #
    def rewire(
        self,
        removed: Iterable[int] = (),
        reparented: Mapping[int, int] | None = None,
        depths: Mapping[int, int] | None = None,
    ) -> "FlatTree":
        """Build the flat view of a patched tree without a full rebuild.

        ``removed`` lists node ids dropped from the tree (crashed or
        detached), ``reparented`` maps every node whose parent pointer
        changed — including nodes *entering* the tree — to its new parent
        id, and ``depths`` gives the new depth of every node whose depth may
        have changed (every reparented node, plus fragment members that kept
        their parent but moved with their unit).  Nodes in neither mapping
        keep their position relative to their level.

        The canonical order (by level, ascending id within a level) is one
        merge of two sorted ``(level, id)`` key runs — the survivors,
        already in order, and the arrivals — so the result is *identical* to
        :meth:`from_arrays` on the patched parents, with no depth
        sort and no invariant re-validation.  The only Python loop is over
        the patch itself: a repaired tree is often a hundred levels deep,
        and a pass per level costs more than the arrays do.  Ids resolve
        through :attr:`position_table`, so a tree with a negative id raises
        :class:`~repro.exceptions.ConfigurationError`.  The root can be
        neither removed nor reparented.  The result is a *new* ``FlatTree``
        whose link, preorder and ancestor caches start unset.
        """
        reparented = {} if reparented is None else reparented
        depths = {} if depths is None else depths
        for node in reparented:
            if node not in depths:
                raise ConfigurationError(
                    f"reparented node {node} has no entry in depths; every "
                    "parent change must supply the node's new depth"
                )
        if self.root_id in reparented or self.root_id in depths:
            raise ConfigurationError("the root cannot be reparented or moved")
        displaced = set(removed)
        if displaced and not displaced.isdisjoint(depths):
            raise ConfigurationError(
                "removed and depths overlap; a node cannot both leave the "
                "tree and take a new position in it"
            )
        displaced.update(depths)

        old_table = self.position_table  # raises on a negative id in the tree
        old_ids = self.ids_array
        old_parent = self.parent

        keep = np.ones(self.num_nodes, dtype=bool)
        if displaced:
            positions = self.positions_of(
                np.fromiter(displaced, dtype=np.int64, count=len(displaced))
            )
            keep[positions[positions >= 0]] = False
        stayed = np.flatnonzero(keep)  # old positions, still in canonical order
        nodes = np.fromiter(depths, dtype=np.int64, count=len(depths))
        if nodes.size and int(nodes.min()) < 0:
            raise ConfigurationError("FlatTree.rewire requires non-negative node ids")
        levels = np.fromiter(depths.values(), dtype=np.int64, count=len(depths))
        sorter = np.lexsort((nodes, levels))
        nodes, levels = nodes[sorter], levels[sorter]

        # Each arrival lands after the survivors that sort before it and
        # after the arrivals before it; survivors fill the other slots.
        span = max(int(old_ids.max()), int(nodes.max()) if nodes.size else 0) + 1
        slots = np.searchsorted(
            self.depth[stayed] * span + old_ids[stayed], levels * span + nodes
        ) + np.arange(nodes.size, dtype=np.int64)
        num_nodes = int(stayed.size + nodes.size)
        survivors = np.ones(num_nodes, dtype=bool)
        survivors[slots] = False
        order = np.empty(num_nodes, dtype=np.int64)
        order[slots] = nodes
        order[survivors] = old_ids[stayed]
        depth = np.empty(num_nodes, dtype=np.int64)
        depth[slots] = levels
        depth[survivors] = self.depth[stayed]
        old_to_new = np.full(self.num_nodes, -1, dtype=np.int64)
        old_to_new[stayed] = np.flatnonzero(survivors)
        table = np.full(int(order.max()) + 1, -1, dtype=np.int64)
        table[order] = np.arange(num_nodes, dtype=np.int64)

        # Survivors translate their parent pointer wholesale (a survivor's
        # parent is itself a survivor); only arrivals resolve through ids —
        # the patch names a reparented node's parent, a node that moved with
        # its unit keeps the one it had.
        parent = np.full(num_nodes, -1, dtype=np.int64)
        parent[survivors] = old_to_new[old_parent[stayed]]
        parent[0] = -1  # the root (old_parent -1 wrapped around above)
        if nodes.size:
            get_reparented = reparented.get
            parent_ids = np.fromiter(
                (get_reparented(node, -1) for node in nodes.tolist()),
                dtype=np.int64,
                count=nodes.size,
            )
            kept = parent_ids < 0
            if kept.any():
                parent_ids[kept] = old_ids[old_parent[old_table[nodes[kept]]]]
            parent[slots] = table[parent_ids]
        if num_nodes > 1 and int(parent[1:].min()) < 0:
            raise ConfigurationError(
                "rewire patch names a parent that is not in the patched tree"
            )

        # A valid tree has contiguous depths, so every level up to the
        # deepest is populated and the spans are the running level counts.
        level_sizes = np.bincount(depth)
        ends = np.cumsum(level_sizes)
        starts = ends - level_sizes
        level_spans = list(zip(starts.tolist(), ends.tolist()))
        # Children grouped by parent, position-ascending within each group:
        # the bucket pass is a sort of (parent, position) keys, which are
        # unique, so the plain sort does for what a stable argsort would.
        positions = np.arange(num_nodes, dtype=np.int64)
        child_positions = np.sort(parent[1:] * num_nodes + positions[1:]) % num_nodes
        child_counts = np.bincount(parent[1:], minlength=num_nodes)
        child_end = np.cumsum(child_counts)
        # Deepest level first, canonical order within a level.
        bottom_up = np.empty(num_nodes, dtype=np.int64)
        bottom_up[num_nodes - ends[depth] + positions - starts[depth]] = positions

        return FlatTree(
            root_id=self.root_id,
            node_ids=order.tolist(),
            parent=parent,
            depth=depth,
            child_start=child_end - child_counts,
            child_end=child_end,
            child_index=child_positions,
            bottom_up=bottom_up,
            level_spans=level_spans,
            ids_array=order,
            position_table=table,
        )

    # ------------------------------------------------------------------ #
    # Convenience accessors (traversals index the arrays directly)
    # ------------------------------------------------------------------ #
    def children_of(self, position: int) -> list[int]:
        """Canonical indices of the children of the node at ``position``.

        Always a plain list of Python ints (hot paths slice ``child_index``
        directly), ascending by node id.
        """
        return self.child_index[
            self.child_start[position] : self.child_end[position]
        ].tolist()

    def parent_id(self, node_id: int) -> int | None:
        """The parent *node id* of ``node_id`` (``None`` at the root)."""
        parent_position = self.parent[self.index[node_id]]
        return None if parent_position < 0 else self.node_ids[parent_position]

    def parent_map(self) -> dict[int, int | None]:
        """Node id → parent id (``None`` at the root), in canonical order."""
        return dict(
            zip(self.node_ids, [None] + self.ids_array[self.parent[1:]].tolist())
        )

    def nodes_bottom_up(self) -> Iterator[int]:
        """Node ids ordered so every node appears before its parent: deepest
        level first, ascending id within a level.  Canonical, so two equal
        trees traverse (and charge) identically however they were built."""
        node_ids = self.node_ids
        return (node_ids[position] for position in self.bottom_up)

    def nodes_top_down(self) -> list[int]:
        """Node ids ordered so every node appears after its parent: by
        level, ascending id within a level (the canonical order)."""
        return list(self.node_ids)

    def max_degree(self) -> int:
        """Maximum tree degree (children count plus one for the parent edge)."""
        return int((self.child_end - self.child_start + (self.parent >= 0)).max())

    def to_lists(self) -> dict[str, list]:
        """Every structural array as a plain Python list, keyed by slot name.

        The view for equality assertions: two flat trees describe the same
        tree iff their ``to_lists()`` match.
        """
        arrays: dict[str, list] = {
            "node_ids": list(self.node_ids),
            "level_spans": list(self.level_spans),
        }
        for slot in _ARRAY_SLOTS:
            arrays[slot] = getattr(self, slot).tolist()
        return arrays

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"FlatTree(nodes={self.num_nodes}, height={self.height}, "
            f"root={self.root_id})"
        )
