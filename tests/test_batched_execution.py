"""Unit tests for the batched execution core.

Covers the flat-tree representation, batch charging and ledger marks, the
radio batch filter, the batched send primitives on the simulator, and the
subtree-sum pass of COUNT / COUNTP.
Whole runs are held to the per-edge reference by ``tests/test_oracle.py``.
"""

import pytest

from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    TopologyError,
)
from repro.network.accounting import CommunicationLedger
from repro.network.flat_tree import FlatTree
from repro.network.radio import LossyRadio, ReliableRadio
from repro.network.simulator import EXECUTION_MODES, SensorNetwork
from repro.network.spanning_tree import spanning_parents
from repro._util.bits import varint_bits
from repro.network.topology import (
    grid_links,
    line_links,
    random_geometric_links,
    random_tree_links,
    star_links,
)
from repro.protocols.base import MeteredRun
from repro.protocols.convergecast import _convergecast_batched, count_convergecast


def build_network(num_nodes=25, topology="grid", **kwargs):
    return SensorNetwork.from_items(
        list(range(num_nodes)), topology=topology, **kwargs
    )


class ReferenceTree:
    """The network's tree as dictionaries, from the builder's parent arrays
    (not from the flat tree): children ascending, depths walked down from
    the root, and the canonical ``(depth, id)`` traversal orders."""

    def __init__(self, network):
        node_ids, parent_ids = spanning_parents(
            network.links, network.root_id, network.degree_bound
        )
        self.root = network.root_id
        self.parent = dict(zip(node_ids.tolist(), [None] + parent_ids[1:].tolist()))
        self.children = {node: [] for node in self.parent}
        for node, up in sorted(self.parent.items()):
            if up is not None:
                self.children[up].append(node)
        self.depth, stack = {self.root: 0}, [self.root]
        while stack:
            node = stack.pop()
            for child in self.children[node]:
                self.depth[child] = self.depth[node] + 1
                stack.append(child)
        self.height = max(self.depth.values())

    def nodes_bottom_up(self):
        return sorted(self.parent, key=lambda node: (-self.depth[node], node))

    def nodes_top_down(self):
        return sorted(self.parent, key=lambda node: (self.depth[node], node))


class TestFlatTree:
    @pytest.fixture(
        params=[
            lambda: grid_links(5, 5),
            lambda: line_links(12),
            lambda: star_links(9),
            lambda: random_geometric_links(30, seed=7),
        ],
        ids=["grid", "line", "star", "geometric"],
    )
    def network(self, request):
        links = request.param()
        return SensorNetwork.from_items(list(range(links.num_nodes)), topology=links)

    def test_matches_spanning_tree_structure(self, network):
        tree = ReferenceTree(network)
        flat = network.flat_tree
        assert flat.num_nodes == len(tree.parent)
        assert flat.height == tree.height
        assert flat.root_id == tree.root
        assert flat.node_ids[0] == tree.root
        for position, node_id in enumerate(flat.node_ids):
            assert flat.depth[position] == tree.depth[node_id]
            parent = tree.parent[node_id]
            if parent is None:
                assert flat.parent[position] == -1
                assert flat.parent_id(node_id) is None
            else:
                assert flat.node_ids[flat.parent[position]] == parent
                assert flat.parent_id(node_id) == parent
            children = [
                flat.node_ids[child] for child in flat.children_of(position)
            ]
            assert children == tree.children[node_id]

    def test_traversal_orders_match_spanning_tree(self, network):
        tree = ReferenceTree(network)
        flat = network.flat_tree
        assert list(flat.nodes_bottom_up()) == tree.nodes_bottom_up()
        assert flat.nodes_top_down() == tree.nodes_top_down()

    def test_level_spans_partition_canonical_order(self, network):
        flat = network.flat_tree
        covered = []
        for depth, (start, end) in enumerate(flat.level_spans):
            assert start <= end
            for position in range(start, end):
                assert flat.depth[position] == depth
            covered.extend(range(start, end))
        assert covered == list(range(flat.num_nodes))

    def test_up_links_are_bottom_up_child_parent_edges(self, network):
        tree = ReferenceTree(network)
        flat = network.flat_tree
        expected = [
            (node_id, tree.parent[node_id])
            for node_id in tree.nodes_bottom_up()
            if tree.parent[node_id] is not None
        ]
        assert flat.up_links == expected

    def test_down_links_are_top_down_fanout_edges(self, network):
        tree = ReferenceTree(network)
        flat = network.flat_tree
        expected = [
            (node_id, child)
            for node_id in tree.nodes_top_down()
            for child in tree.children[node_id]
        ]
        assert flat.down_links == expected

    def test_cache_invalidated_by_rebuild(self):
        network = build_network(20, topology="single_hop", degree_bound=None)
        first = network.flat_tree
        assert network.flat_tree is first  # cached
        network.rebuild_tree()
        rebuilt = network.flat_tree
        assert rebuilt is not first
        assert list(rebuilt.nodes_bottom_up()) == ReferenceTree(network).nodes_bottom_up()

    def test_from_spanning_tree_alias(self):
        network = build_network(9)
        flat = FlatTree.from_spanning_tree(network.tree)
        assert flat.node_ids == network.flat_tree.node_ids


class TestChargeBatch:
    def test_matches_sequential_charges(self):
        batched = CommunicationLedger()
        sequential = CommunicationLedger()
        links = [(0, 1), (1, 2), (0, 1), (2, 3)]
        sizes = [8, 16, 24, 32]
        copies = [1, 2, 1, 3]
        batched.charge_batch(links, sizes, copies, protocol="P")
        for (sender, receiver), size, count in zip(links, sizes, copies):
            for _ in range(count):
                sequential.charge(sender, receiver, size, protocol="P")
        assert batched.snapshot() == sequential.snapshot()

    def test_copies_none_means_once_each(self):
        ledger = CommunicationLedger()
        ledger.charge_batch([(0, 1), (1, 0)], [10, 20])
        assert ledger.total_bits == 30
        assert ledger.total_messages == 2
        assert ledger.node_bits(0) == 30
        assert ledger.node_bits(1) == 30

    def test_zero_copies_skipped(self):
        ledger = CommunicationLedger()
        ledger.charge_batch([(0, 1), (1, 2)], [10, 10], [0, 1])
        assert ledger.total_bits == 10
        assert ledger.total_messages == 1
        assert ledger.node_bits(0) == 0

    def test_negative_size_rejected(self):
        ledger = CommunicationLedger()
        with pytest.raises(Exception):
            ledger.charge_batch([(0, 1)], [-1])

    def test_budget_enforced_in_batch(self):
        ledger = CommunicationLedger(per_node_budget_bits=30)
        with pytest.raises(BudgetExceededError):
            ledger.charge_batch([(0, 1), (0, 1)], [20, 20])
        # The first transmission was committed before the breach, exactly as
        # on the per-edge path.
        assert ledger.node_bits(0) == 40

    def test_total_bits_counter_consistent(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 5)
        ledger.charge_batch([(1, 2)], [7], [2])
        assert ledger.total_bits == 5 + 14
        assert ledger.snapshot().total_bits == ledger.total_bits

    def test_empty_batch_leaves_no_trace(self):
        ledger = CommunicationLedger()
        ledger.charge_batch([], [], protocol="P")
        ledger.charge_batch([(0, 1)], [8], [0], protocol="Q")  # all skipped
        assert ledger.per_protocol_bits() == {}
        assert ledger.snapshot() == CommunicationLedger().snapshot()

    def test_counters_snapshot_matches_totals_without_per_node_copy(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 12, protocol="P")
        ledger.advance_round(2)
        cheap = ledger.counters_snapshot()
        full = ledger.snapshot()
        assert cheap.total_bits == full.total_bits
        assert cheap.messages == full.messages
        assert cheap.rounds == full.rounds
        assert cheap.per_protocol_bits == full.per_protocol_bits
        assert cheap.per_node_bits == {}

    def test_mid_batch_bad_size_mutates_nothing(self):
        ledger = CommunicationLedger()
        with pytest.raises(Exception):
            ledger.charge_batch([(0, 1), (1, 2)], [8, -4])
        # Sizes are validated up front, so the ledger stays untouched and
        # internally consistent (totals match per-node counters).
        assert ledger.total_bits == 0
        assert ledger.max_node_bits == 0
        assert ledger.total_messages == 0


class TestLedgerMarks:
    def test_deltas_cover_touched_nodes_only(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 100)
        mark = ledger.mark()
        ledger.charge(1, 2, 8)
        deltas = ledger.node_deltas_since(mark)
        assert deltas == {1: 8, 2: 8}
        assert ledger.max_node_delta_since(mark) == 8
        assert 0 not in deltas  # untouched during the interval

    def test_nested_marks_measure_their_own_intervals(self):
        ledger = CommunicationLedger()
        outer = ledger.mark()
        ledger.charge(0, 1, 10)
        inner = ledger.mark()
        ledger.charge(0, 1, 5)
        assert ledger.max_node_delta_since(inner) == 5
        assert ledger.max_node_delta_since(outer) == 15
        ledger.release(inner)
        ledger.release(outer)

    def test_release_is_idempotent_and_preserves_baselines(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 5)
        mark = ledger.mark()
        ledger.charge(3, 4, 6)
        ledger.release(mark)
        ledger.release(mark)
        assert ledger.node_deltas_since(mark) == {3: 6, 4: 6}
        # Released, the mark is not rebased by a reset: it still reads
        # against the totals it took (a rebased one would see {0: 5, 1: 5}).
        ledger.reset()
        ledger.charge(0, 1, 5)
        assert ledger.node_deltas_since(mark) == {}

    def test_reset_rebases_active_marks(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 50)
        mark = ledger.mark()
        ledger.reset()
        ledger.charge(0, 1, 4)
        assert ledger.max_node_delta_since(mark) == 4
        assert ledger.total_bits - mark.total_bits == 4

    def test_merge_records_baselines_for_active_marks(self):
        ledger = CommunicationLedger()
        other = CommunicationLedger()
        other.charge(7, 8, 12)
        mark = ledger.mark()
        ledger.merge(other)
        assert ledger.node_deltas_since(mark) == {7: 12, 8: 12}
        assert ledger.total_bits - mark.total_bits == 12

    def test_metered_run_uses_marks(self):
        network = build_network(9)
        with MeteredRun(network) as metered:
            network.send(0, 1, "x", 32, protocol="T")
            result = metered.result("answer")
        assert result.value == "answer"
        assert result.total_bits == 32
        assert result.max_node_bits == 32
        assert result.messages == 1


class TestFilterBatch:
    def test_reliable_radio_delivers_every_link_once(self):
        attempts, copies, failed = ReliableRadio().filter_batch([(0, 1), (1, 2)])
        assert attempts.tolist() == copies.tolist() == [1, 1]
        assert failed is None


class TestBatchedSendPrimitives:
    def test_send_batch_charges_like_sends(self):
        batched = build_network(9)
        reference = build_network(9)
        links = [(0, 1), (1, 2)]
        sizes = [8, 24]
        batched.send_batch(links, sizes, protocol="T")
        for (sender, receiver), size in zip(links, sizes):
            reference.send(sender, receiver, "x", size, protocol="T")
        assert batched.ledger.snapshot() == reference.ledger.snapshot()

    def test_send_batch_validates_lengths(self):
        network = build_network(4, topology="line")
        with pytest.raises(ConfigurationError):
            network.send_batch([(0, 1)], [8, 8])

    def test_send_batch_validates_nodes_and_edges(self):
        network = build_network(4, topology="line")
        with pytest.raises(ConfigurationError):
            network.send_batch([(0, 99)], [8])
        with pytest.raises(TopologyError):
            network.send_batch([(0, 2)], [8])
        # Unknown endpoints fail fast even when the edge check is waived.
        with pytest.raises(ConfigurationError):
            network.send_batch([(0, 99)], [8], require_edge=False)
        assert network.ledger.total_bits == 0
        assert 99 not in set(network.ledger.nodes())

    def test_lossy_send_batch_matches_per_edge_charges(self):
        links = [(0, 1), (1, 2), (2, 3)] * 10
        sizes = [8] * len(links)
        batched = build_network(4, topology="line", radio=LossyRadio(0.5, seed=3))
        reference = build_network(4, topology="line", radio=LossyRadio(0.5, seed=3))
        batched.send_batch(links, sizes, protocol="T")
        for (sender, receiver), size in zip(links, sizes):
            reference.send(sender, receiver, "x", size, protocol="T")
        assert batched.ledger.snapshot() == reference.ledger.snapshot()


class TestCountConvergecast:
    """The subtree-sum pass against the generic batched fold it replaces."""

    @pytest.mark.parametrize(
        "links",
        [
            lambda: line_links(1),
            lambda: line_links(9),
            lambda: star_links(8),
            lambda: random_tree_links(40, seed=3),
        ],
        ids=["single", "line", "star", "random-tree"],
    )
    @pytest.mark.parametrize("lossy", [False, True], ids=["reliable", "lossy"])
    def test_equals_the_generic_batched_fold(self, links, lossy):
        twins = []
        for _ in range(2):
            radio = LossyRadio(0.4, seed=5) if lossy else ReliableRadio()
            network = SensorNetwork(links(), radio=radio)
            network.assign_items({node: [node] * (node % 4) for node in network.node_ids()})
            twins.append(network)
        generic, kernel = twins
        local = kernel.item_columns.lengths

        expected = _convergecast_batched(
            generic,
            local.tolist(),
            lambda a, b: a + b,
            lambda value: varint_bits(int(value)),
            "T",
        )
        answer = count_convergecast(kernel, local, "T")
        assert type(answer) is int and answer == expected
        assert answer == sum(node % 4 for node in kernel.node_ids())
        assert kernel.ledger.snapshot() == generic.ledger.snapshot()


class TestExecutionMode:
    def test_default_is_batched(self):
        assert build_network(4, topology="line").execution == "batched"

    def test_modes_validated(self):
        network = build_network(4, topology="line")
        with pytest.raises(ConfigurationError):
            network.execution = "warp-speed"
        with pytest.raises(ConfigurationError):
            SensorNetwork.from_items([1, 2], topology="line", execution="bogus")
        for mode in EXECUTION_MODES:
            network.execution = mode

    def test_node_ids_sorted_and_mutation_safe(self):
        network = build_network(16)
        first = network.node_ids()
        assert first == sorted(first)
        first.reverse()  # callers may mutate their copy freely
        assert network.node_ids() == sorted(network.node_ids())
        assert [node.node_id for node in network.nodes()] == network.node_ids()
