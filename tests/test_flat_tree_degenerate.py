"""FlatTree on degenerate topologies, and fail-fast invariant validation."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, TopologyError
from repro.network.flat_tree import FlatTree
from repro.network.simulator import SensorNetwork
from repro.network.spanning_tree import SpanningTree, build_tree
from repro.network.topology import line_links, star_links


def line_tree(num_nodes):
    return build_tree(line_links(num_nodes), root=0)


def star_tree(num_nodes):
    return build_tree(star_links(num_nodes), root=0)


class DictTree:
    """A reference tree kept as its own dictionaries: the parent map as
    given, children ascending, depths by a walk down from the root."""

    def __init__(self, root, parent):
        self.root, self.parent = root, dict(parent)
        self.children = {node: [] for node in self.parent}
        for node, up in sorted(self.parent.items()):
            if up is not None:
                self.children[up].append(node)
        self.depth, stack = {root: 0}, [root]
        while stack:
            node = stack.pop()
            for child in self.children[node]:
                self.depth[child] = self.depth[node] + 1
                stack.append(child)

    def bottom_up(self):
        return sorted(self.parent, key=lambda node: (-self.depth[node], node))

    def top_down(self):
        return sorted(self.parent, key=lambda node: (self.depth[node], node))

    @classmethod
    def of(cls, flat):
        return cls(flat.root_id, flat.parent_map())


def mutable_view(flat):
    """A hand-editable :class:`SpanningTree` of ``flat``."""
    view = SpanningTree.from_flat(flat)
    return SpanningTree(
        root=view.root,
        parent=dict(view.parent),
        children={node: list(kids) for node, kids in view.children.items()},
        depth=dict(view.depth),
    )


def subtree_of(tree, node):
    members, stack = [], [node]
    while stack:
        members.append(stack.pop())
        stack.extend(tree.children[members[-1]])
    return members


@st.composite
def patched_trees(draw):
    """A random tree of 1–64 nodes — sometimes with its highest id moved to
    99 — and a ``rewire`` patch for it: ``(tree, removed, reparented,
    depths)``."""
    num_nodes = draw(st.integers(1, 64))
    ids = list(range(num_nodes))
    if num_nodes > 1 and draw(st.booleans()):
        ids[-1] = 99
    parent = {ids[0]: None}
    for position in range(1, num_nodes):
        parent[ids[position]] = ids[draw(st.integers(0, position - 1))]
    tree = DictTree(ids[0], parent)

    leaves = [node for node in ids[1:] if not tree.children[node]]
    removed = set(draw(st.lists(st.sampled_from(leaves), unique=True))) if leaves else set()
    patched = {node: par for node, par in parent.items() if node not in removed}

    reparented: dict[int, int] = {}
    movable = [node for node in ids[1:] if node not in removed]
    if movable and draw(st.booleans()):
        mover = draw(st.sampled_from(movable))
        inside = set(subtree_of(tree, mover))
        targets = [node for node in patched if node not in inside]
        reparented[mover] = draw(st.sampled_from(targets))
        patched[mover] = reparented[mover]
    for node in draw(
        st.lists(
            st.integers(0, 200).filter(lambda node: node not in parent),
            unique=True,
            max_size=8,
        )
    ):
        reparented[node] = draw(st.sampled_from(sorted(patched)))
        patched[node] = reparented[node]

    # Every node whose parent changed, and everything that moved with it.
    rebuilt = DictTree(ids[0], patched)
    depths = {
        member: rebuilt.depth[member]
        for node in reparented
        for member in subtree_of(rebuilt, node)
    }
    return tree, removed, reparented, depths


class TestSingleNode:
    def test_arrays(self):
        flat = line_tree(1)
        assert flat.num_nodes == 1
        assert flat.height == 0
        assert flat.node_ids == [0]
        assert flat.parent == [-1]
        assert flat.depth == [0]
        assert flat.children_of(0) == []
        assert flat.level_spans == [(0, 1)]
        assert flat.up_links == [] and flat.down_links == []

    def test_orders(self):
        flat = line_tree(1)
        assert list(flat.nodes_bottom_up()) == [0]
        assert flat.nodes_top_down() == [0]
        assert flat.parent_id(0) is None


class TestDeepPath:
    """A path graph: the tree is a chain of height n - 1."""

    N = 40

    def test_shape(self):
        flat = line_tree(self.N)
        assert flat.height == self.N - 1
        assert flat.num_nodes == self.N
        # Every level holds exactly one node.
        assert flat.level_spans == [(i, i + 1) for i in range(self.N)]
        # Each node's only child is the next node down the chain.
        for position in range(self.N - 1):
            assert flat.children_of(position) == [position + 1]
        assert flat.children_of(self.N - 1) == []

    def test_orders_match_spanning_tree(self):
        flat = line_tree(self.N)
        tree = DictTree.of(flat)
        assert list(flat.nodes_bottom_up()) == tree.bottom_up()
        assert flat.nodes_top_down() == tree.top_down()
        # Bottom-up must visit the deep end first, top-down the root first.
        assert next(iter(flat.nodes_bottom_up())) == self.N - 1
        assert flat.nodes_top_down()[0] == 0

    def test_link_sequences(self):
        flat = line_tree(self.N)
        assert flat.up_links == [(i, i - 1) for i in range(self.N - 1, 0, -1)]
        assert flat.down_links == [(i, i + 1) for i in range(self.N - 1)]


class TestStar:
    """A star: the root has n - 1 children, height 1."""

    N = 33

    def test_shape(self):
        flat = star_tree(self.N)
        assert flat.height == 1
        assert flat.level_spans == [(0, 1), (1, self.N)]
        assert flat.children_of(0) == list(range(1, self.N))
        assert all(flat.parent[i] == 0 for i in range(1, self.N))

    def test_orders(self):
        flat = star_tree(self.N)
        bottom_up = list(flat.nodes_bottom_up())
        assert bottom_up == DictTree.of(flat).bottom_up()
        assert bottom_up[-1] == 0  # the root combines last
        assert flat.nodes_top_down()[0] == 0

    def test_batched_protocols_run(self):
        # End to end: a degenerate topology through the batched sweeps.
        from repro.protocols.broadcast import broadcast
        from repro.protocols.convergecast import convergecast

        network = SensorNetwork.from_items(
            list(range(1, self.N + 1)), topology="star", degree_bound=None
        )
        broadcast(network, "q", 8, protocol="req")
        total = convergecast(
            network,
            local_values=network.item_columns.sums(),
            combine=lambda a, b: a + b,
            size_bits=16,
            protocol="sum",
        )
        assert total == self.N * (self.N + 1) // 2


class TestFailFastValidation:
    """from_spanning_tree must reject malformed trees (satellite of PR 3)."""

    def test_valid_tree_passes(self):
        tree = mutable_view(line_tree(5))
        tree.check_invariants()
        assert FlatTree.from_spanning_tree(tree).num_nodes == 5

    def test_child_list_mismatch(self):
        tree = mutable_view(line_tree(5))
        tree.children[1].remove(2)  # 2's parent still claims 1
        with pytest.raises(TopologyError):
            FlatTree.from_spanning_tree(tree)

    def test_duplicate_child_entry(self):
        tree = mutable_view(star_tree(4))
        tree.children[1].append(2)  # 2 now appears under 0 and 1
        with pytest.raises(TopologyError):
            FlatTree.from_spanning_tree(tree)

    def test_depth_inconsistency(self):
        tree = mutable_view(line_tree(5))
        tree.depth[3] = 7
        with pytest.raises(TopologyError):
            FlatTree.from_spanning_tree(tree)

    def test_root_with_parent(self):
        tree = mutable_view(line_tree(3))
        tree.parent[0] = 2
        with pytest.raises(TopologyError):
            FlatTree.from_spanning_tree(tree)

    def test_key_set_mismatch(self):
        tree = mutable_view(line_tree(3))
        del tree.depth[2]
        with pytest.raises(TopologyError):
            FlatTree.from_spanning_tree(tree)

    def test_cycle_is_rejected(self):
        parent = {0: None, 1: 0, 2: 3, 3: 2}
        children = {0: [1], 1: [], 2: [3], 3: [2]}
        depth = {0: 0, 1: 1, 2: 1, 3: 2}
        tree = SpanningTree(root=0, parent=parent, children=children, depth=depth)
        with pytest.raises(TopologyError):
            FlatTree.from_spanning_tree(tree)

    def test_from_parents_rejects_disconnection(self):
        with pytest.raises(TopologyError):
            FlatTree.from_parents(0, {0: None, 1: 0, 2: None})

    @pytest.mark.parametrize(
        "root, parent",
        [
            (0, {0: 1, 1: 0}),  # a cycle through the root
            (0, {0: None, 1: 5}),  # a parent that is no node
            (3, {0: None}),  # a root that is no node
            (0, {0: None, 1: 2, 2: 1}),  # a cycle beside the root
        ],
    )
    def test_from_parents_rejects_malformed_maps(self, root, parent):
        with pytest.raises(TopologyError):
            FlatTree.from_parents(root, parent)


class TestRewire:
    """The incremental re-span must be indistinguishable from a rebuild."""

    SLOTS = (
        "root_id",
        "num_nodes",
        "height",
        "index",
        "up_links",
        "down_links",
    )

    def assert_matches_scratch(self, rewired, patched_tree):
        scratch = FlatTree.from_parents(patched_tree.root, patched_tree.parent)
        for slot in self.SLOTS:
            assert getattr(rewired, slot) == getattr(scratch, slot), slot
        # Structural arrays compared as plain lists.
        assert rewired.to_lists() == scratch.to_lists()

    def patch(self, tree, removed=(), reparented=None):
        """Apply a patch to a parent map and return the rebuilt DictTree."""
        parent = dict(tree.parent)
        for node in removed:
            del parent[node]
        for node, new_parent in (reparented or {}).items():
            parent[node] = new_parent
        return DictTree(tree.root, parent)

    def moved_depths(self, patched, nodes):
        depths = {}
        stack = list(nodes)
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen or node not in patched.parent:
                continue
            seen.add(node)
            depths[node] = patched.depth[node]
            stack.extend(patched.children[node])
        return depths

    def test_leaf_removal(self):
        tree = DictTree.of(line_tree(8))
        patched = self.patch(tree, removed=[7])
        rewired = FlatTree.from_parents(tree.root, tree.parent).rewire(removed={7})
        self.assert_matches_scratch(rewired, patched)

    def test_subtree_reparent_changes_every_member_depth(self):
        tree = DictTree.of(star_tree(6))
        # hang node 5 below node 1 instead of the hub
        patched = self.patch(tree, reparented={5: 1})
        rewired = FlatTree.from_parents(tree.root, tree.parent).rewire(
            reparented={5: 1}, depths=self.moved_depths(patched, [5])
        )
        self.assert_matches_scratch(rewired, patched)

    def test_node_addition(self):
        tree = DictTree.of(line_tree(6))
        parent = dict(tree.parent)
        parent[99] = 2
        patched = DictTree(0, parent)
        rewired = FlatTree.from_parents(tree.root, tree.parent).rewire(
            reparented={99: 2}, depths={99: patched.depth[99]}
        )
        self.assert_matches_scratch(rewired, patched)

    def test_reparent_requires_depth(self):
        from repro.exceptions import ConfigurationError

        flat = line_tree(5)
        with pytest.raises(ConfigurationError):
            flat.rewire(reparented={3: 0})

    def test_root_cannot_move(self):
        from repro.exceptions import ConfigurationError

        flat = line_tree(5)
        with pytest.raises(ConfigurationError):
            flat.rewire(reparented={0: 1}, depths={0: 1})

    def test_removed_and_depths_must_not_overlap(self):
        from repro.exceptions import ConfigurationError

        flat = line_tree(5)
        with pytest.raises(ConfigurationError):
            flat.rewire(removed={3}, reparented={3: 0}, depths={3: 1})

    @given(case=patched_trees())
    @settings(max_examples=200, deadline=None)
    def test_rewire_equals_rebuild(self, case):
        """Any patch of leaf removals, one subtree re-hang and insertions, on
        trees of 1–64 nodes (sparse ids included): the re-span is the rebuild."""
        tree, removed, reparented, depths = case
        patched = self.patch(tree, removed=removed, reparented=reparented)
        rewired = FlatTree.from_parents(tree.root, tree.parent).rewire(
            removed=removed, reparented=reparented, depths=depths
        )
        # to_lists() carries node_ids and level_spans; height is a slot.
        self.assert_matches_scratch(rewired, patched)

    def test_negative_id_is_a_named_error(self):
        flat = FlatTree.from_parents(0, {0: None, -1: 0, 1: 0})
        with pytest.raises(ConfigurationError, match="non-negative"):
            flat.rewire(removed={1})
        with pytest.raises(ConfigurationError, match="non-negative"):
            line_tree(3).rewire(reparented={-5: 0}, depths={-5: 1})


def reference_preorder(tree):
    """A dict DFS over ``tree.children``: the preorder as node ids, and every
    node's ``(start, size)`` in it."""
    order, stack = [], [tree.root]
    while stack:
        order.append(stack.pop())
        stack.extend(reversed(tree.children[order[-1]]))
    start = {node: index for index, node in enumerate(order)}
    size = {node: 1 for node in order}
    for node in reversed(order):
        if tree.parent[node] is not None:
            size[tree.parent[node]] += size[node]
    return order, {node: (start[node], size[node]) for node in order}


class TestPreorder:
    """``FlatTree.preorder`` against the dict DFS reference."""

    def assert_matches_reference(self, flat, tree):
        order, start, size = flat.preorder
        expected_order, spans = reference_preorder(tree)
        assert [flat.node_ids[position] for position in order.tolist()] == expected_order
        assert {
            node: (start[position], size[position])
            for position, node in enumerate(flat.node_ids)
        } == spans

    @given(case=patched_trees())
    @settings(max_examples=100, deadline=None)
    def test_random_trees_and_their_rewires(self, case):
        tree, removed, reparented, depths = case
        flat = FlatTree.from_parents(tree.root, tree.parent)
        self.assert_matches_reference(flat, tree)
        rewired = flat.rewire(removed=removed, reparented=reparented, depths=depths)
        self.assert_matches_reference(
            rewired, DictTree.of(rewired)
        )

    @given(case=patched_trees())
    @settings(max_examples=100, deadline=None)
    def test_lowest_common_ancestors_of_random_trees_and_their_rewires(self, case):
        """Every preorder-ordered pair of nodes meets where the dict walk
        to the root says, before and after a rewire."""
        tree, removed, reparented, depths = case
        flat = FlatTree.from_parents(tree.root, tree.parent)
        for each in (flat, flat.rewire(removed=removed, reparented=reparented, depths=depths)):
            pairs = np.asarray(
                list(combinations(each.preorder[0].tolist(), 2)), dtype=np.int64
            ).reshape(-1, 2)

            def path(position):
                while position >= 0:
                    yield position
                    position = int(each.parent[position])

            expected = [
                next(x for x in path(b) if x in set(path(a))) for a, b in pairs.tolist()
            ]
            assert each.lowest_common_ancestors(pairs[:, 0], pairs[:, 1]).tolist() == expected

    def test_single_node(self):
        flat = line_tree(1)
        assert [part.tolist() for part in flat.preorder] == [[0], [0], [1]]

    def test_star(self):
        tree = DictTree.of(star_tree(33))
        self.assert_matches_reference(FlatTree.from_parents(tree.root, tree.parent), tree)

    def test_fifty_thousand_node_line(self):
        """Height 49,999: a recursive walk would overflow the stack, and a
        pass per level would take seconds."""
        num_nodes = 50_000
        flat = FlatTree.from_arrays([-1, *range(num_nodes - 1)])
        order, start, size = flat.preorder
        assert order.tolist() == list(range(num_nodes))
        assert start.tolist() == list(range(num_nodes))
        assert size.tolist() == list(range(num_nodes, 0, -1))
        # 16 lifting rows reach the height; on a line the earlier node of a
        # pair is the meeting point.
        assert flat.ancestors.shape == (16, num_nodes)
        later = np.arange(1, num_nodes, 997, dtype=np.int64)
        assert flat.lowest_common_ancestors(later - 1, later).tolist() == (later - 1).tolist()
