"""Flat-array spanning-tree representation for the batched execution core.

:class:`~repro.network.spanning_tree.SpanningTree` describes the tree with
per-node dictionaries, which is convenient for construction and validation
but expensive to traverse: every protocol walk re-sorts the node set by depth
and chases parent/children pointers through hash lookups.  :class:`FlatTree`
freezes one spanning tree into contiguous arrays indexed by a *canonical
index* — the node's position in the top-down level order — so the batched
protocol implementations can sweep whole levels with array indexing only:

* ``parent[i]`` is the canonical index of node ``i``'s parent (``-1`` at the
  root, which always has canonical index 0),
* the children of node ``i`` are ``child_index[child_start[i]:child_end[i]]``,
  in the same order as ``SpanningTree.children`` (so combine orders match the
  per-edge traversals exactly),
* ``bottom_up`` lists canonical indices in exactly the order of
  :meth:`SpanningTree.nodes_bottom_up`, and the canonical order itself *is*
  :meth:`SpanningTree.nodes_top_down`,
* ``level_spans[d]`` is the half-open span of depth-``d`` nodes in canonical
  order, so level sweeps are contiguous slices,
* ``up_links`` / ``down_links`` are the tree's edge sequences as
  ``(sender, receiver)`` node-id pairs, in exactly the order the per-edge
  convergecast and broadcast sweeps transmit them — computed on first use
  and then shared, so full-tree batched sweeps ship a ready-made link list
  to ``SensorNetwork.send_batch`` while repair-heavy runs that never sweep
  the full tree do not pay for them; in numpy mode ``up_link_array`` is the
  same up-sweep as one ``(k, 2)`` int64 array, the form ``send_batch``
  charges without a per-link loop.

**Representation.**  When numpy is installed (the ``fast`` extra) the
structural arrays — ``parent``, ``depth``, ``child_start``, ``child_end``,
``child_index``, ``bottom_up`` — are contiguous ``int64`` buffers, which is
what lets the vectorized execution path sweep a million-node level as one
array expression.  Without numpy they are plain Python lists with identical
contents (:mod:`repro._util.fastpath` warns once per feature on fallback).
Everything that crosses back into id-keyed code — ``node_ids``,
``level_spans``, ``up_links``/``down_links``, :meth:`parent_id` — is always
built from Python ints, so ledgers, radios and traces never see a numpy
scalar regardless of representation.  The per-edge reference path keeps
consuming those id-level views, which is how the randomized ledger
cross-checks stay bit-for-bit meaningful.

The representation is immutable by convention: it is built once per spanning
tree (``SensorNetwork.flat_tree`` caches it and rebuilds only when the tree
object changes) and shared by every batched traversal.  Because instances
are immutable, the lazy ``up_links``/``down_links`` caches live on the
instance: :meth:`rewire` returns a *new* ``FlatTree`` with both caches
unset, so a rewire can never serve stale link lists to a subsequent sweep
(``tests/test_vectorized.py`` pins this with a rewire-then-sweep regression
test).  Fault repair is the one producer of *slightly different* trees at
high frequency, so it does not rebuild from scratch: :meth:`FlatTree.rewire`
re-spans the arrays around a set of pointer flips, removals and insertions
in one linear pass — no re-validation, no depth sort — and the repaired
network installs the result via :meth:`~repro.network.SensorNetwork.set_tree`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro._util.fastpath import np as _np
from repro.exceptions import ConfigurationError, TopologyError
from repro.network.spanning_tree import SpanningTree

#: Below this size the vectorised re-span costs more than it saves.
_NUMPY_REWIRE_MIN_NODES = 512

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
    """Array-of-structs view of a rooted spanning tree."""

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
    )

    def __init__(self, tree: SpanningTree) -> None:
        order = tree.nodes_top_down()
        index = {node: position for position, node in enumerate(order)}
        num_nodes = len(order)
        parent = [0] * num_nodes
        depth = [0] * num_nodes
        child_start = [0] * num_nodes
        child_end = [0] * num_nodes
        child_index: list[int] = []
        for position, node in enumerate(order):
            depth[position] = tree.depth[node]
            node_parent = tree.parent[node]
            parent[position] = -1 if node_parent is None else index[node_parent]
            child_start[position] = len(child_index)
            child_index.extend(index[child] for child in tree.children[node])
            child_end[position] = len(child_index)

        height = depth[-1] if num_nodes else 0
        level_spans: list[tuple[int, int]] = []
        start = 0
        for level in range(height + 1):
            end = start
            while end < num_nodes and depth[end] == level:
                end += 1
            level_spans.append((start, end))
            start = end

        bottom_up = [index[node] for node in tree.nodes_bottom_up()]
        self._install(
            root_id=tree.root,
            node_ids=order,
            parent=parent,
            depth=depth,
            child_start=child_start,
            child_end=child_end,
            child_index=child_index,
            bottom_up=bottom_up,
            level_spans=level_spans,
            index=index,
        )

    def _install(
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
        index: dict[int, int] | None,
        ids_array=None,
        position_table=None,
    ) -> None:
        """Adopt the structural arrays, promoting them to int64 buffers.

        numpy arrays are the primary representation when numpy is available;
        the pure-Python fallback keeps the same contents as lists.  Inputs
        may be lists or arrays — whichever the producing code path built.
        ``ids_array`` / ``position_table`` pre-fill those lazy views when the
        producer already holds them.
        """
        self.root_id = root_id
        self.num_nodes = len(node_ids)
        self.height = len(level_spans) - 1 if level_spans else 0
        self.node_ids = node_ids
        self.level_spans = level_spans
        if _np is not None:
            parent = _np.ascontiguousarray(parent, dtype=_np.int64)
            depth = _np.ascontiguousarray(depth, dtype=_np.int64)
            child_start = _np.ascontiguousarray(child_start, dtype=_np.int64)
            child_end = _np.ascontiguousarray(child_end, dtype=_np.int64)
            child_index = _np.ascontiguousarray(child_index, dtype=_np.int64)
            bottom_up = _np.ascontiguousarray(bottom_up, dtype=_np.int64)
        self.parent = parent
        self.depth = depth
        self.child_start = child_start
        self.child_end = child_end
        self.child_index = child_index
        self.bottom_up = bottom_up
        self._index = index
        self._ids_array = ids_array
        self._position_table = position_table
        self._up_links = None
        self._up_link_array = None
        self._down_links = None

    # ------------------------------------------------------------------ #
    # Derived views (lazy, immutable once built)
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> dict[int, int]:
        """Node id → canonical position.  Built lazily: the vectorized path
        never touches it, and at a million nodes the dict alone costs more
        to build than a whole fused epoch."""
        if self._index is None:
            self._index = {
                node: position for position, node in enumerate(self.node_ids)
            }
        return self._index

    @property
    def ids_array(self):
        """``node_ids`` as an int64 buffer (numpy mode only).

        The vectorized kernels use it to translate canonical positions to
        node ids wholesale (``ids_array[positions]``) when charging ledgers.
        """
        if self._ids_array is None:
            if _np is None:
                raise ConfigurationError(
                    "FlatTree.ids_array requires numpy (the 'fast' extra)"
                )
            self._ids_array = _np.asarray(self.node_ids, dtype=_np.int64)
        return self._ids_array

    @property
    def position_table(self):
        """Node id → canonical position as one int64 array (numpy mode only).

        ``table[node_id]`` is the node's position, ``-1`` for an id below the
        largest one that is not in the tree.  The array counterpart of
        :attr:`index` for fields with dense non-negative ids — the table is
        ``max(id) + 1`` long — and the one id→position table the array
        paths share: :meth:`rewire`, the fast repair and election, and the
        vectorized engine's column re-alignment all read it.
        """
        if self._position_table is None:
            ids = self.ids_array
            if ids.size and int(ids.min()) < 0:
                raise ConfigurationError(
                    "FlatTree.position_table requires non-negative node ids"
                )
            table = _np.full(int(ids.max()) + 1 if ids.size else 0, -1, dtype=_np.int64)
            table[ids] = _np.arange(self.num_nodes, dtype=_np.int64)
            self._position_table = table
        return self._position_table

    def positions_of(self, node_ids):
        """Canonical positions of an int64 id array, ``-1`` where the id is
        not in the tree (numpy mode only; see :attr:`position_table`)."""
        table = self.position_table
        node_ids = _np.asarray(node_ids, dtype=_np.int64)
        inside = (node_ids >= 0) & (node_ids < table.size)
        if bool(inside.all()):
            return table[node_ids]
        positions = _np.full(node_ids.shape, -1, dtype=_np.int64)
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
            if _np is not None:
                links = self.up_link_array
                self._up_links = list(zip(links[:, 0].tolist(), links[:, 1].tolist()))
            else:
                order = self.node_ids
                parent = self.parent
                self._up_links = [
                    (order[position], order[parent[position]])
                    for position in self.bottom_up
                    if parent[position] >= 0
                ]
        return self._up_links

    @property
    def up_link_array(self):
        """:attr:`up_links` as one ``(k, 2)`` int64 array (numpy mode only).

        The form :meth:`SensorNetwork.send_batch` charges without a per-link
        loop; treat as read-only — it is shared like the list.
        """
        if self._up_link_array is None:
            ids = self.ids_array
            positions = self.bottom_up[self.parent[self.bottom_up] >= 0]
            self._up_link_array = _np.stack(
                (ids[positions], ids[self.parent[positions]]), axis=1
            )
        return self._up_link_array

    @property
    def down_links(self) -> list[tuple[int, int]]:
        """Every parent→child edge, in the order the top-down sweep sends."""
        if self._down_links is None:
            if _np is not None and self.num_nodes > 1:
                ids = self.ids_array
                counts = self.child_end - self.child_start
                senders = ids[_np.repeat(
                    _np.arange(self.num_nodes, dtype=_np.int64), counts
                )].tolist()
                receivers = ids[self.child_index].tolist()
                self._down_links = list(zip(senders, receivers))
            else:
                order = self.node_ids
                child_start = self.child_start
                child_end = self.child_end
                child_index = self.child_index
                self._down_links = [
                    (node, order[child])
                    for position, node in enumerate(order)
                    for child in child_index[child_start[position] : child_end[position]]
                ]
        return self._down_links

    @classmethod
    def from_spanning_tree(cls, tree: SpanningTree) -> "FlatTree":
        """Build the flat representation after validating ``tree``'s structure.

        Runs :meth:`SpanningTree.check_invariants` first — parent pointers,
        child lists and depths must be mutually consistent — so a malformed
        tree (e.g. produced by a buggy incremental repair) raises
        :class:`~repro.exceptions.TopologyError` here instead of silently
        corrupting every batched sweep built on the arrays.
        """
        tree.check_invariants()
        return cls(tree)

    @classmethod
    def from_arrays(cls, parent_ids: Sequence[int], root_id: int = 0) -> "FlatTree":
        """Build a flat tree directly from a parent-id array, no SpanningTree.

        ``parent_ids[i]`` is the parent *id* of node ``i`` (ids are the dense
        range ``0..n-1``), ``-1`` exactly at ``root_id``.  This is the
        million-node constructor: it never materialises per-node dicts, so a
        1M-node balanced tree flattens in milliseconds instead of the seconds
        a ``SpanningTree`` round-trip costs.  Depths are derived by pointer
        doubling-style waves, which also catches cycles (no convergence
        within ``n`` levels raises :class:`~repro.exceptions.TopologyError`).

        Requires numpy; use :meth:`from_spanning_tree` on the pure-Python
        fallback.
        """
        from repro._util.fastpath import require_numpy

        np = require_numpy("FlatTree.from_arrays")
        parents = np.ascontiguousarray(parent_ids, dtype=np.int64)
        num_nodes = int(parents.shape[0])
        if num_nodes == 0:
            raise TopologyError("cannot build a FlatTree over zero nodes")
        if not 0 <= root_id < num_nodes or parents[root_id] != -1:
            raise TopologyError(
                f"root {root_id} must be in range and have parent -1"
            )
        if int((parents == -1).sum()) != 1:
            raise TopologyError("exactly one node (the root) may have parent -1")
        if ((parents < -1) | (parents >= num_nodes)).any():
            raise TopologyError("parent ids out of range")

        # Depth by pointer doubling: ``hop[i]`` is an ancestor of ``i`` and
        # ``depth_of_id[i]`` the hop count to it; squaring the hop pointer
        # each round grounds every node at the root in O(log height) whole-
        # array passes.  A cycle never grounds and is caught by the bound.
        ids = np.arange(num_nodes, dtype=np.int64)
        depth_of_id = np.where(ids == root_id, 0, 1).astype(np.int64)
        hop = parents.copy()
        hop[root_id] = root_id
        for _ in range(num_nodes.bit_length() + 2):
            if bool((hop == root_id).all()):
                break
            depth_of_id = depth_of_id + depth_of_id[hop]
            hop = hop[hop]
        else:
            raise TopologyError("parent pointers do not reach the root (cycle?)")

        order = np.lexsort((np.arange(num_nodes, dtype=np.int64), depth_of_id))
        depth = depth_of_id[order]
        pos_of_id = np.empty(num_nodes, dtype=np.int64)
        pos_of_id[order] = np.arange(num_nodes, dtype=np.int64)
        parent = np.where(
            parents[order] >= 0, pos_of_id[parents[order]], -1
        ).astype(np.int64)

        height = int(depth[-1])
        bounds = np.searchsorted(depth, np.arange(height + 2, dtype=np.int64))
        level_spans = [
            (int(bounds[level]), int(bounds[level + 1]))
            for level in range(height + 1)
        ]
        child_positions = np.argsort(parent[1:], kind="stable") + 1
        child_counts = np.bincount(parent[1:], minlength=num_nodes)
        child_end = np.cumsum(child_counts)
        child_start = child_end - child_counts
        bottom_up = np.concatenate(
            [
                np.arange(start, end, dtype=np.int64)
                for start, end in reversed(level_spans)
            ]
        )

        flat = object.__new__(cls)
        flat._install(
            root_id=root_id,
            node_ids=order.tolist(),
            parent=parent,
            depth=depth,
            child_start=child_start,
            child_end=child_end,
            child_index=child_positions,
            bottom_up=bottom_up,
            level_spans=level_spans,
            index=None,
        )
        return flat

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

        The canonical order (by level, ascending id within a level) is
        reassembled by merging each level's surviving run with its sorted
        insertions, so the result is *identical* to
        ``FlatTree.from_spanning_tree`` on the patched tree — one linear
        pass, no depth sort, no invariant re-validation.  The root can be
        neither removed nor reparented.  The result is a *new* ``FlatTree``
        whose ``up_links``/``down_links`` caches start unset.
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

        if (
            _np is not None
            and self.num_nodes >= _NUMPY_REWIRE_MIN_NODES
            and int(self.ids_array.min()) >= 0
        ):
            return self._rewire_numpy(displaced, reparented, depths)
        return self._rewire_python(displaced, reparented, depths)

    def _rewire_python(
        self,
        displaced: set[int],
        reparented: Mapping[int, int],
        depths: Mapping[int, int],
    ) -> "FlatTree":
        insertions: dict[int, list[int]] = {}
        for node, level in depths.items():
            insertions.setdefault(level, []).append(node)
        for members in insertions.values():
            members.sort()
        old_order = self.node_ids
        old_spans = self.level_spans
        old_index = self.index
        old_parent = self.parent
        max_level = max(
            len(old_spans) - 1, max(insertions) if insertions else 0
        )
        # Walk the old canonical order once, splicing each level's sorted
        # arrivals into its surviving run.  ``old_to_new`` / ``new_to_old``
        # record the position translation so survivors' parent pointers can
        # later be translated with pure list indexing — a survivor's parent
        # is itself a survivor, since a moved parent moves its whole subtree
        # (their depths all change) and a removed parent removes or
        # reparents its children.
        order: list[int] = []
        new_to_old: list[int] = []
        old_to_new = [-1] * self.num_nodes
        level_spans: list[tuple[int, int]] = []
        for level in range(max_level + 1):
            begin = len(order)
            start, end = old_spans[level] if level < len(old_spans) else (0, 0)
            arrivals = insertions.get(level)
            if arrivals is None:
                for position in range(start, end):
                    node = old_order[position]
                    if node not in displaced:
                        old_to_new[position] = len(order)
                        new_to_old.append(position)
                        order.append(node)
            else:
                slot = 0
                pending = len(arrivals)
                for position in range(start, end):
                    node = old_order[position]
                    if node in displaced:
                        continue
                    while slot < pending and arrivals[slot] < node:
                        new_to_old.append(-1)
                        order.append(arrivals[slot])
                        slot += 1
                    old_to_new[position] = len(order)
                    new_to_old.append(position)
                    order.append(node)
                for node in arrivals[slot:]:
                    new_to_old.append(-1)
                    order.append(node)
            level_spans.append((begin, len(order)))
        # A valid tree has contiguous depths, so only trailing levels can
        # empty out (a repair that truncated the deepest fragments).
        while level_spans and level_spans[-1][0] == level_spans[-1][1]:
            level_spans.pop()

        num_nodes = len(order)
        index = {node: position for position, node in enumerate(order)}
        parent = [-1] * num_nodes
        depth = [0] * num_nodes
        for level, (start, end) in enumerate(level_spans):
            if level:
                depth[start:end] = [level] * (end - start)
        # Children bucketed by parent in canonical-position order: within a
        # level positions ascend by id, so each bucket comes out in exactly
        # the ascending-id order SpanningTree keeps its child lists in.
        # Survivors translate their parent through the position maps; only
        # arrivals (the damage) need id-level resolution.
        buckets: list[list[int]] = [[] for _ in range(num_nodes)]
        get_reparented = reparented.get
        for position in range(1, num_nodes):
            old_position = new_to_old[position]
            if old_position >= 0:
                parent_position = old_to_new[old_parent[old_position]]
            else:
                node = order[position]
                parent_id = get_reparented(node)
                if parent_id is None:
                    parent_id = old_order[old_parent[old_index[node]]]
                parent_position = index[parent_id]
            parent[position] = parent_position
            buckets[parent_position].append(position)
        child_start = [0] * num_nodes
        child_end = [0] * num_nodes
        child_index: list[int] = []
        for position in range(num_nodes):
            child_start[position] = len(child_index)
            child_index.extend(buckets[position])
            child_end[position] = len(child_index)

        height = len(level_spans) - 1
        bottom_up: list[int] = []
        for level in range(height, -1, -1):
            start, end = level_spans[level]
            bottom_up.extend(range(start, end))

        rewired = object.__new__(FlatTree)
        rewired._install(
            root_id=self.root_id,
            node_ids=order,
            parent=parent,
            depth=depth,
            child_start=child_start,
            child_end=child_end,
            child_index=child_index,
            bottom_up=bottom_up,
            level_spans=level_spans,
            index=index,
        )
        return rewired

    def _rewire_numpy(
        self,
        displaced: set[int],
        reparented: Mapping[int, int],
        depths: Mapping[int, int],
    ) -> "FlatTree":
        """Whole-array re-span; produces exactly the arrays of the pure path.

        Ids resolve through :attr:`position_table` (hence non-negative ids)
        and the canonical order is one merge of two sorted ``(level, id)``
        key runs — the survivors, already in order, and the arrivals — so
        the only Python loop left is over the patch itself: a repaired tree
        is often a hundred levels deep, and a pass per level costs more
        than the arrays do.
        """
        np = _np
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
        order_np = np.empty(num_nodes, dtype=np.int64)
        order_np[slots] = nodes
        order_np[survivors] = old_ids[stayed]
        depth_np = np.empty(num_nodes, dtype=np.int64)
        depth_np[slots] = levels
        depth_np[survivors] = self.depth[stayed]
        old_to_new = np.full(self.num_nodes, -1, dtype=np.int64)
        old_to_new[stayed] = np.flatnonzero(survivors)
        table = np.full(int(order_np.max()) + 1, -1, dtype=np.int64)
        table[order_np] = np.arange(num_nodes, dtype=np.int64)

        # Survivors translate their parent pointer wholesale (a survivor's
        # parent is itself a survivor); only arrivals resolve through ids —
        # the patch names a reparented node's parent, a node that moved with
        # its unit keeps the one it had.
        parent_np = np.full(num_nodes, -1, dtype=np.int64)
        parent_np[survivors] = old_to_new[old_parent[stayed]]
        parent_np[0] = -1  # the root (old_parent -1 wrapped around above)
        if nodes.size:
            get_reparented = reparented.get
            parent_ids = np.fromiter(
                (get_reparented(node, -1) for node in nodes.tolist()),
                dtype=np.int64,
                count=nodes.size,
            )
            kept = parent_ids < 0
            if kept.any():
                parent_ids[kept] = old_ids[old_parent[self.position_table[nodes[kept]]]]
            parent_np[slots] = table[parent_ids]
        if num_nodes > 1 and int(parent_np[1:].min()) < 0:
            raise ConfigurationError(
                "rewire patch names a parent that is not in the patched tree"
            )

        # A valid tree has contiguous depths, so every level up to the
        # deepest is populated and the spans are the running level counts.
        level_sizes = np.bincount(depth_np)
        ends = np.cumsum(level_sizes)
        starts = ends - level_sizes
        level_spans = list(zip(starts.tolist(), ends.tolist()))
        # Children grouped by parent, position-ascending within each group:
        # the bucket pass is a sort of (parent, position) keys, which are
        # unique, so the plain sort does for what a stable argsort would.
        positions = np.arange(num_nodes, dtype=np.int64)
        child_positions = np.sort(parent_np[1:] * num_nodes + positions[1:]) % num_nodes
        child_counts = np.bincount(parent_np[1:], minlength=num_nodes)
        child_end_np = np.cumsum(child_counts)
        # Deepest level first, canonical order within a level.
        bottom_up_np = np.empty(num_nodes, dtype=np.int64)
        bottom_up_np[num_nodes - ends[depth_np] + positions - starts[depth_np]] = positions

        rewired = object.__new__(FlatTree)
        rewired._install(
            root_id=self.root_id,
            node_ids=order_np.tolist(),
            parent=parent_np,
            depth=depth_np,
            child_start=child_end_np - child_counts,
            child_end=child_end_np,
            child_index=child_positions,
            bottom_up=bottom_up_np,
            level_spans=level_spans,
            index=None,
            ids_array=order_np,
            position_table=table,
        )
        return rewired

    # ------------------------------------------------------------------ #
    # Convenience accessors (traversals index the arrays directly)
    # ------------------------------------------------------------------ #
    def children_of(self, position: int) -> list[int]:
        """Canonical indices of the children of the node at ``position``.

        Always a plain list of Python ints (hot paths slice ``child_index``
        directly); iteration order matches ``SpanningTree.children``.
        """
        span = self.child_index[self.child_start[position] : self.child_end[position]]
        return span.tolist() if hasattr(span, "tolist") else span

    def parent_id(self, node_id: int) -> int | None:
        """The parent *node id* of ``node_id`` (``None`` at the root)."""
        parent_position = self.parent[self.index[node_id]]
        return None if parent_position < 0 else self.node_ids[parent_position]

    def nodes_bottom_up(self) -> Iterator[int]:
        """Node ids in the same order as ``SpanningTree.nodes_bottom_up``."""
        node_ids = self.node_ids
        return (node_ids[position] for position in self.bottom_up)

    def nodes_top_down(self) -> list[int]:
        """Node ids in the same order as ``SpanningTree.nodes_top_down``."""
        return list(self.node_ids)

    def to_lists(self) -> dict[str, list]:
        """Every structural array as a plain Python list, keyed by slot name.

        Representation-independent view for equality assertions: two flat
        trees describe the same tree iff their ``to_lists()`` match, whether
        each side is numpy-backed or pure Python.
        """
        arrays: dict[str, list] = {
            "node_ids": list(self.node_ids),
            "level_spans": list(self.level_spans),
        }
        for slot in _ARRAY_SLOTS:
            value = getattr(self, slot)
            arrays[slot] = value.tolist() if hasattr(value, "tolist") else list(value)
        return arrays

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"FlatTree(nodes={self.num_nodes}, height={self.height}, "
            f"root={self.root_id})"
        )
