"""Vectorized / sharded execution: the layers under the whole-array paths.

The million-node core runs count-valued standing queries as whole-array
level sweeps over the numpy-backed :class:`~repro.network.FlatTree` (the
engine's column sweep), on a ``"sharded"`` network fanned out over subtree
shards in worker processes.  Whole runs of both are checked against the
per-edge reference by ``tests/test_oracle.py``; this
file holds the contracts of the layers underneath: the varint kernels
against the scalar ``repro._util.bits`` they mirror, the
ledger's merge and refusals, ``FlatTree.from_arrays`` and the rewire
cache-invalidation regression, which kernel the engine gives each query,
fork workers against inline ones, and :class:`VectorField`.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util import bits as scalar_bits
from repro.network.radio import LossyRadio, ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import CountQuery, MedianQuery

DOMAIN = 1 << 10


def grid_network(execution, radio=None):
    return SensorNetwork.from_items(
        list(range(1, 37)), topology="grid", radio=radio, execution=execution
    )


# --------------------------------------------------------------------------- #
# Kernel arithmetic: array varints == scalar varints
# --------------------------------------------------------------------------- #
class TestVarintKernels:
    def test_varint_bits_matches_scalar(self):
        from repro.streaming.vector_kernels import varint_bits_array

        values = list(range(0, 200)) + [
            (1 << k) + d for k in range(8, 52) for d in (-1, 0, 1)
        ]
        array = np.asarray(values, dtype=np.int64)
        expected = [scalar_bits.varint_bits(v) for v in values]
        assert varint_bits_array(array).tolist() == expected

    def test_signed_varint_bits_matches_scalar(self):
        from repro.streaming.vector_kernels import signed_varint_bits_array

        values = [0, 1, -1, 2, -2, 63, -64, 64, -65]
        values += [s * ((1 << k) + d) for k in range(8, 50) for d in (-1, 0, 1) for s in (1, -1)]
        array = np.asarray(values, dtype=np.int64)
        expected = [scalar_bits.signed_varint_bits(v) for v in values]
        assert signed_varint_bits_array(array).tolist() == expected

    def test_random_values_match_scalar(self):
        from repro.streaming.vector_kernels import (
            signed_varint_bits_array,
            varint_bits_array,
        )

        rng = np.random.default_rng(5)
        magnitudes = rng.integers(0, 1 << 52, size=2000)
        assert varint_bits_array(magnitudes).tolist() == [
            scalar_bits.varint_bits(int(v)) for v in magnitudes
        ]
        signed = magnitudes * np.where(rng.random(2000) < 0.5, -1, 1)
        assert signed_varint_bits_array(signed).tolist() == [
            scalar_bits.signed_varint_bits(int(v)) for v in signed
        ]

    def test_varint_bits_sum_matches_the_summed_array(self):
        from repro._util.bits import varint_bits_array, varint_bits_sum

        rng = np.random.default_rng(7)
        edges = [0, 1, 2, 3] + [(1 << k) + d for k in range(2, 53) for d in (-1, 0, 1)]
        for dtype, high in ((np.int32, 1 << 31), (np.int64, 1 << 53)):
            counts = rng.integers(0, high, size=(60, 5), dtype=dtype)
            flat = counts.reshape(-1)
            edges_here = [edge for edge in edges if edge < high]
            flat[: len(edges_here)] = edges_here
            for axis in (0, 1):
                expected = varint_bits_array(counts).sum(axis=axis)
                assert varint_bits_sum(counts, axis=axis).tolist() == expected.tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1), min_size=1))
    @example([0, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 63) - 1, -(1 << 63)])
    def test_every_int64_matches_scalar(self, values):
        """Exact over all of int64: no float rounding past 2**53, and the
        zigzag of ``-2**63`` (``2**64 - 1``) does not overflow."""
        from repro.streaming.vector_kernels import (
            signed_varint_bits_array,
            varint_bits_array,
        )

        signed = np.asarray(values, dtype=np.int64)
        assert signed_varint_bits_array(signed).tolist() == [
            scalar_bits.signed_varint_bits(v) for v in values
        ]
        magnitudes = [v if v >= 0 else -(v + 1) for v in values]
        assert varint_bits_array(np.asarray(magnitudes, dtype=np.int64)).tolist() == [
            scalar_bits.varint_bits(v) for v in magnitudes
        ]


# --------------------------------------------------------------------------- #
# The ledger's columns: merges and refusals (charging is held to the retired
# dict ledger by tests/test_ledger_oracle.py)
# --------------------------------------------------------------------------- #
class TestArrayLedger:
    def test_merge_is_order_independent(self):
        from repro.network.accounting import CommunicationLedger

        pieces = []
        for shard in range(3):
            ledger = CommunicationLedger()
            for k in range(10):
                ledger.charge(shard * 10 + k, shard, 5 + k, protocol=f"q{shard % 2}")
            pieces.append(ledger)
        forward, backward = CommunicationLedger(), CommunicationLedger()
        for piece in pieces:
            forward.merge(piece)
        for piece in reversed(pieces):
            backward.merge(piece)
        assert forward.snapshot().per_node_bits == backward.snapshot().per_node_bits
        assert (
            forward.snapshot().per_protocol_bits
            == backward.snapshot().per_protocol_bits
        )

    @pytest.mark.parametrize("bad", [-1, -2, 4, 7])
    def test_out_of_range_ids_charge_nothing(self, bad):
        """numpy indexing would bill ``-1`` to the last node; the sized
        ledger refuses instead, with one text for small and whole batches."""
        from repro.exceptions import ConfigurationError
        from repro.network.accounting import CommunicationLedger

        ledger = CommunicationLedger(4)
        ledger.charge(0, 1, 3, protocol="ok")
        before = ledger.snapshot()
        attempts = [
            lambda: ledger.charge(bad, 0, 8),
            lambda: ledger.charge(0, bad, 8),
            lambda: ledger.charge_array([1, bad], [2, 3], [5, 5]),
            lambda: ledger.charge_array([1, 2], [bad, 3], [5, 5], copies=[2, 1]),
            lambda: ledger.charge_batch([(1, 2), (3, bad)], [5, 5]),
        ]
        if bad >= 0:  # an unsized ledger refuses a negative id too
            stray = CommunicationLedger()
            stray.charge(0, bad, 8)
            attempts.append(lambda: ledger.merge(stray))
        for attempt in attempts:
            with pytest.raises(ConfigurationError):
                attempt()
            assert ledger.snapshot() == before
        with pytest.raises(ConfigurationError) as small:
            ledger.charge_batch([(1, 2), (3, bad)], [5, 5])
        with pytest.raises(ConfigurationError) as whole:
            ledger.charge_array([1, 3], [2, bad], [5, 5])
        assert str(small.value) == str(whole.value)

    def test_charge_batch_slices_leave_the_same_ledger(self, monkeypatch):
        """A batch longer than the conversion slice: same ledger as the dict
        oracle, and a bad id in the *last* slice still charges nothing."""
        from repro.exceptions import ConfigurationError
        from repro.network import accounting

        from ledger_oracle import DictLedger

        monkeypatch.setattr(accounting, "_BATCH_CHUNK", 64)
        rng = random.Random(9)
        links = [(rng.randrange(40), rng.randrange(40)) for _ in range(300)]
        sizes = [rng.randrange(0, 30) for _ in range(300)]
        copies = [rng.randrange(0, 3) for _ in range(300)]
        for repeats in (None, copies):
            reference = DictLedger()
            reference.charge_batch(links, sizes, repeats, protocol="p")
            dense = accounting.CommunicationLedger(40)
            dense.charge_batch(links, sizes, repeats, protocol="p")
            assert dense.snapshot() == reference.snapshot()
        dense = accounting.CommunicationLedger(40)
        with pytest.raises(ConfigurationError):
            dense.charge_batch(links[:-1] + [(3, 40)], sizes)
        with pytest.raises(ConfigurationError):
            dense.charge_batch(links, sizes[:-1] + [-1])
        assert dense.snapshot() == accounting.CommunicationLedger(40).snapshot()

    def test_merge_equals_the_charges_replayed_on_one_ledger(self):
        """``a.merge(b)`` equals the same charges replayed on one ledger, and
        an open mark sees the merge as a delta."""
        from repro.network.accounting import CommunicationLedger

        rng = random.Random(11)
        charges = [
            (rng.randrange(30), rng.randrange(30), rng.randrange(1, 50), f"p{k % 3}")
            for k in range(120)
        ]
        target, source, replay = (
            CommunicationLedger(30),
            CommunicationLedger(30),
            CommunicationLedger(),
        )
        for k, (sender, receiver, bits, protocol) in enumerate(charges):
            if k == 20:
                mark = target.mark()
                replay_mark = replay.mark()
            (target if k < 40 else source).charge(sender, receiver, bits, protocol)
            replay.charge(sender, receiver, bits, protocol)
        source.advance_round(3)
        replay.advance_round(3)
        target.merge(source)
        assert target.snapshot() == replay.snapshot()
        assert target.counters_snapshot() == replay.counters_snapshot()
        assert target.max_node_delta_since(mark) == replay.max_node_delta_since(
            replay_mark
        )
        assert target.node_deltas_since(mark) == replay.node_deltas_since(replay_mark)


# --------------------------------------------------------------------------- #
# FlatTree: from_arrays and the rewire cache-invalidation regression
# --------------------------------------------------------------------------- #
class TestFlatTreeArrays:
    def test_from_arrays_matches_from_spanning_tree(self):
        from repro.network.flat_tree import FlatTree

        network = grid_network("batched")
        parents = np.full(network.num_nodes, -1, dtype=np.int64)
        for node, parent in network.flat_tree.parent_map().items():
            parents[node] = -1 if parent is None else parent
        rebuilt = FlatTree.from_arrays(parents)
        assert rebuilt.to_lists() == network.flat_tree.to_lists()

    def test_from_arrays_rejects_cycles(self):
        from repro.exceptions import ConfigurationError
        from repro.network.flat_tree import FlatTree

        with pytest.raises(ConfigurationError):
            FlatTree.from_arrays([-1, 2, 1])

    def test_rewire_result_has_fresh_link_caches(self):
        """Regression: stale up/down-link caches after a repair rewire.

        ``up_links``/``down_links`` are lazy per-instance caches; ``rewire``
        returns a *new* FlatTree so the caches must start unset and reflect
        the patched structure, even when the caches of the source tree were
        already materialised (forcing them first is the regression trigger).
        """
        from repro.network.flat_tree import FlatTree

        flat = FlatTree.from_arrays([-1, 0, 0, 1, 1, 2])
        stale_up = flat.up_links
        stale_down = flat.down_links
        stale_down_array = flat.down_link_array.tolist()
        stale_preorder = [part.tolist() for part in flat.preorder]
        stale_ancestors = flat.ancestors.tolist()
        patched = flat.rewire(removed=[5], reparented={4: 2}, depths={4: 2})
        # Build the expectation directly: node 5 gone, node 4 under node 2.
        expected = FlatTree.from_arrays([-1, 0, 0, 1, 2])
        assert patched.to_lists() == expected.to_lists()
        assert patched.up_links == expected.up_links
        assert patched.up_link_array.tolist() == [list(link) for link in expected.up_links]
        assert patched.down_links == expected.down_links
        assert patched.down_link_array.tolist() == [
            list(link) for link in expected.down_links
        ]
        # Preorder 0 1 3 2 4: node 4's subtree is itself, node 2's is {2, 4}.
        assert [part.tolist() for part in patched.preorder] == [
            [0, 1, 3, 2, 4],
            [0, 1, 3, 2, 4],
            [5, 2, 2, 1, 1],
        ]
        assert patched.up_links != stale_up
        assert patched.down_links != stale_down
        assert patched.down_link_array.tolist() != stale_down_array
        assert [part.tolist() for part in patched.preorder] != stale_preorder
        # Node 4 now sits under node 2: its ancestors are 2, then the root.
        assert patched.ancestors.tolist() == expected.ancestors.tolist() == [
            [0, 0, 0, 1, 2]
        ]
        assert patched.ancestors.tolist() != stale_ancestors
        # The source instance's caches are untouched (rewire is pure).
        assert flat.up_links == stale_up
        assert flat.down_links == stale_down
        assert flat.down_link_array.tolist() == stale_down_array
        assert [part.tolist() for part in flat.preorder] == stale_preorder
        assert flat.ancestors.tolist() == stale_ancestors

    def test_rewire_then_sweep_reads_the_new_tree(self):
        """A network whose tree is replaced by a rewire sweeps the new tree:
        MIN, COUNT and exact COUNT DISTINCT read exactly the nodes it spans,
        over its links, even with every cache of the old tree built."""
        from repro.distinct import ExactDistinctCountProtocol
        from repro.protocols import CountProtocol, MinProtocol

        network = SensorNetwork.from_items([5, 4, 7, 3, 9, 1], topology="line")
        flat = network.flat_tree
        assert MinProtocol().run(network).value == 1
        assert ExactDistinctCountProtocol().run(network).value == 6
        _ = flat.preorder, flat.down_link_array, flat.up_link_array, flat.ancestors
        # Cut node 5 off the end of the line: its item 1 leaves the tree.
        network.set_tree(flat.rewire(removed=[5]))
        assert MinProtocol().run(network).value == 3
        network.reset_ledger()
        assert CountProtocol().run(network).value == 5
        assert network.ledger.snapshot().messages == 2 * 4  # broadcast + convergecast
        network.set_tree(network.flat_tree.rewire(removed=[4, 3, 2]))
        assert MinProtocol().run(network).value == 4
        assert ExactDistinctCountProtocol().run(network).value == 2


# --------------------------------------------------------------------------- #
# The engine's kernels: which query runs where, fork workers, recovery
# --------------------------------------------------------------------------- #
def kernel_runs(monkeypatch) -> dict[str, list[str]]:
    """Record each kernel's ``run`` by the protocol (``stream:<query>``) it
    charges; returns ``{"sweep": [...], "fold": [...]}``."""
    from repro.streaming.kernels import FoldKernel, SweepKernel

    runs: dict[str, list[str]] = {"sweep": [], "fold": []}
    for label, kernel in (("sweep", SweepKernel), ("fold", FoldKernel)):
        original = kernel.run

        def run(self, dirty, slack, protocol, original=original, label=label):
            runs[label].append(protocol)
            return original(self, dirty, slack, protocol)

        monkeypatch.setattr(kernel, "run", run)
    return runs


def mixed_engine(network):
    """COUNT, COUNTP and a q-digest quantile on one engine."""
    from repro.streaming import PredicateCountQuery

    engine = ContinuousQueryEngine(network, epsilon=0.1, shard_processes=0)
    engine.register("count", CountQuery())
    engine.register("low", PredicateCountQuery(lambda item: item < DOMAIN // 2, "low"))
    engine.register("median", MedianQuery(universe_size=DOMAIN, compression=16))
    return engine


def drift(network, epochs: int, seed: int = 3) -> list[dict]:
    rng = random.Random(seed)
    ids = network.node_ids()
    return [
        {node: [rng.randrange(DOMAIN)] for node in rng.sample(ids, max(1, len(ids) // 10))}
        for _ in range(epochs)
    ]


class TestKernelChoice:
    def test_perfect_links_sweep_counts_and_fold_a_quantile(self, monkeypatch, kernel_radio):
        """Under ``ReliableRadio`` itself COUNT and COUNTP take the sweep and
        the quantile the fold; under perfect links of another class
        (``kernel_radio``'s fold side) every query folds."""
        runs = kernel_runs(monkeypatch)
        network = grid_network("batched", kernel_radio)
        engine = mixed_engine(network)
        for updates in drift(network, 2):
            engine.advance_epoch(updates)
        counts = {"stream:count", "stream:low"}
        if type(kernel_radio) is ReliableRadio:
            assert set(runs["sweep"]) == counts
            assert set(runs["fold"]) == {"stream:median"}
        else:
            assert runs["sweep"] == []
            assert set(runs["fold"]) == counts | {"stream:median"}

    @pytest.mark.parametrize(
        "execution, radio, budget",
        [
            ("batched", LossyRadio(0.2, seed=1), None),
            ("batched", None, 10**9),
            ("per-edge", None, None),
        ],
        ids=["lossy", "budget", "per-edge"],
    )
    def test_everything_else_takes_the_fold(self, monkeypatch, execution, radio, budget):
        from repro.network import CommunicationLedger
        from repro.network.topology import build_links

        runs = kernel_runs(monkeypatch)
        network = SensorNetwork(
            build_links("grid", 36),
            radio=radio,
            ledger=CommunicationLedger(36, per_node_budget_bits=budget),
            execution=execution,
        )
        engine = mixed_engine(network)
        for updates in drift(network, 2):
            engine.advance_epoch(updates)
        assert runs["sweep"] == []
        assert set(runs["fold"]) == {"stream:count", "stream:low", "stream:median"}

    def test_a_sharded_field_sweeps_every_count_query(self, monkeypatch):
        runs = kernel_runs(monkeypatch)
        network = grid_network("sharded")
        engine = mixed_engine(network)
        for updates in drift(network, 2):
            engine.advance_epoch(updates)
        engine.close()
        assert set(runs["sweep"]) == {"stream:count", "stream:low"}
        assert set(runs["fold"]) == {"stream:median"}

    def test_a_radio_swapped_after_registration_charges_what_per_edge_charges(
        self, monkeypatch
    ):
        """Registered on perfect links, the counts take the sweep; a lossy
        radio swapped in afterwards must still cost exactly what the per-edge
        specification charges, delivered mask by delivered mask."""
        runs = kernel_runs(monkeypatch)
        observed = []
        for execution in ("per-edge", "batched"):
            network = grid_network(execution)
            network.clear_items()
            engine = mixed_engine(network)
            network.radio = LossyRadio(0.3, seed=5)
            answers = [engine.advance_epoch(updates).answers for updates in drift(network, 6)]
            observed.append((answers, network.ledger.snapshot()))
        assert set(runs["sweep"]) == {"stream:count", "stream:low"}
        assert observed[0] == observed[1]

    def test_vectorized_serves_quantile_and_distinct_queries_as_per_edge_does(self):
        """``"vectorized"`` is a spelling of ``"batched"``: a q-digest
        quantile and a LogLog distinct count register on it, directly and
        through tenancy, and answer and charge what per-edge does."""
        from repro.streaming import DistinctCountQuery, QuantileQuery
        from repro.tenancy import MultiTenantEngine

        def queries():
            return {
                "median": QuantileQuery(0.5, universe_size=DOMAIN, compression=16),
                "distinct": DistinctCountQuery(num_registers=16),
            }

        observed = []
        for execution in ("per-edge", "vectorized"):
            runs = []
            for tenancy in (False, True):
                network = grid_network(execution)
                network.clear_items()
                if tenancy:
                    engine = MultiTenantEngine(network, epsilon=0.1)
                    for name, query in queries().items():
                        assert engine.register("acme", name, query).admitted
                else:
                    engine = ContinuousQueryEngine(network, epsilon=0.1)
                    for name, query in queries().items():
                        engine.register(name, query)
                for updates in drift(network, 4):
                    engine.advance_epoch(updates)
                runs.append((engine.answers(), network.ledger.snapshot()))
            observed.append(runs)
        assert observed[1] == observed[0]
        answers = observed[1][1][0]["acme"]
        assert answers["median"] is not None and answers["distinct"] > 0

    def test_sharded_rejects_lossy_radios(self):
        """Sharded workers cannot see a seeded radio's send counts — loud refusal."""
        from repro.exceptions import ConfigurationError

        network = grid_network("sharded", LossyRadio(loss_rate=0.35, seed=0))
        engine = ContinuousQueryEngine(network, epsilon=0.1, shard_processes=0)
        engine.register("count", CountQuery())
        with pytest.raises(ConfigurationError):
            engine.advance_epoch({1: [3, 4]})

    def test_fork_workers_charge_what_inline_workers_charge(self):
        """The one thing ``shard_processes`` changes is where the shard
        sweeps run; answers and the merged ledger must not notice."""
        runs = []
        for processes in (0, 2):
            network = grid_network("sharded")
            network.clear_items()
            engine = ContinuousQueryEngine(network, epsilon=0.1, shard_processes=processes)
            engine.register("count", CountQuery())
            rng = random.Random(3)
            answers = [
                engine.advance_epoch(
                    {rng.randrange(36): [rng.randrange(DOMAIN)] for _ in range(8)}
                ).answers
                for _ in range(4)
            ]
            engine.close()
            runs.append((answers, network.ledger.snapshot()))
        assert runs[0] == runs[1]

    def test_a_detached_subtree_takes_its_parked_caches_along(self):
        """Rows dropped together with the parent holding their copies leave
        nothing parked: a later eviction of the same child, back in the tree
        under another parent, must not subtract the stale copy again."""
        from repro.faults import FaultEngine, RootCrash, TreeRepair
        from repro.network.topology import build_links

        network = SensorNetwork(build_links("random_geometric", 6, seed=0))
        engine = ContinuousQueryEngine(network, epsilon=0.0)
        engine.register("count", CountQuery())
        faults = FaultEngine(network)

        def fail_over(epoch, updates):
            report = faults.step(epoch, [RootCrash()])
            engine.apply_root_change(report.election)
            engine.apply_repair(report.repair)
            engine.advance_epoch(updates)

        fail_over(0, {1: [0]})
        root = network.root_id  # the highest id: isolating it detaches the rest
        neighbors = list(network.links.neighbors(root))
        for neighbor in neighbors:
            network.drop_link(root, neighbor)
        engine.apply_repair(TreeRepair().repair(network))
        for neighbor in neighbors:
            network.restore_link(root, neighbor)
        fail_over(1, {})
        network.drop_link(1, network.flat_tree.parent_id(1))
        engine.apply_repair(TreeRepair().repair(network))
        fail_over(2, {})
        assert engine.answers()["count"] == len(network.attached_items()) == 1

    def test_a_fragment_root_keeps_its_live_parents_copy_until_evicted(self):
        """A fail-over whose winner fragment was cut off a *live* parent (a
        dropped link, not the dead root): that parent still holds the
        fragment root's copy until the repair's child_losses evict it."""
        from repro.faults import FaultEngine, LinkDrop, RootCrash
        from repro.network.topology import build_links

        network = SensorNetwork(build_links("grid", 7, seed=0), degree_bound=3)
        engine = ContinuousQueryEngine(network, epsilon=0.1)
        engine.register("count", CountQuery())
        faults = FaultEngine(network)
        for epoch, updates, events in (
            (0, {1: [0]}, [RootCrash()]),
            (1, {}, [RootCrash(), LinkDrop(1, 2)]),
        ):
            report = faults.step(epoch, events)
            engine.apply_root_change(report.election)
            engine.apply_repair(report.repair)
            engine.advance_epoch(updates)
        assert engine.answers()["count"] == len(network.attached_items()) == 1


# --------------------------------------------------------------------------- #
# VectorField: the standalone million-node surface
# --------------------------------------------------------------------------- #
class TestVectorField:
    def test_exact_count_and_churn(self):
        from repro.network import VectorField

        field = VectorField.balanced(500, branching=4)
        field.register_count_query("count")
        counts = np.arange(500, dtype=np.int64) % 9
        field.advance_epoch(changed_positions=np.arange(500), new_counts=counts)
        assert field.answers["count"] == int(counts.sum())
        record = field.advance_epoch(
            changed_positions=np.asarray([7, 8]), new_counts=np.asarray([100, 0])
        )
        counts[7], counts[8] = 100, 0
        assert record["answers"]["count"] == int(counts.sum())

    def test_quiet_epoch_costs_nothing(self):
        from repro.network import VectorField

        field = VectorField.balanced(200, branching=3, epsilon=0.0)
        field.register_count_query("count", announce=False)
        field.advance_epoch(
            changed_positions=np.arange(200),
            new_counts=np.ones(200, dtype=np.int64),
        )
        record = field.advance_epoch()
        assert record["bits"] == record["heartbeat_bits"]
        assert record["transmissions"] == 0

    def test_crash_detaches_subtree_from_answer(self):
        from repro.network import VectorField

        field = VectorField.balanced(85, branching=4, epsilon=0.0)
        field.register_count_query("count", announce=False)
        field.advance_epoch(
            changed_positions=np.arange(85),
            new_counts=np.ones(85, dtype=np.int64),
        )
        assert field.answers["count"] == 85
        field.crash([1])  # kills position 1: itself and its whole subtree
        detached = int((~field.attached).sum())
        field.advance_epoch(
            changed_positions=np.arange(85),
            new_counts=np.full(85, 2, dtype=np.int64),
        )
        assert detached == 0  # attach mask recomputed inside advance_epoch
        alive_attached = int(field.attached.sum())
        assert field.answers["count"] == 2 * alive_attached

    def test_epsilon_suppression_bounds_error(self):
        from repro.network import VectorField

        field = VectorField.balanced(300, branching=5, epsilon=0.5)
        field.register_count_query("count", announce=False)
        rng = np.random.default_rng(11)
        truth = rng.integers(0, 20, 300)
        field.advance_epoch(changed_positions=np.arange(300), new_counts=truth)
        exact = int(truth.sum())
        assert field.answers["count"] == exact  # first epoch is exact
        suppressed = 0
        for _ in range(5):
            changed = rng.choice(300, 30, replace=False)
            truth = truth.copy()
            truth[changed] = np.maximum(
                0, truth[changed] + rng.integers(-1, 2, 30)
            )
            record = field.advance_epoch(
                changed_positions=changed, new_counts=truth[changed]
            )
            suppressed += record["suppressions"]
            # ε-slack per hop, ≤ one slack per node on the root path:
            assert abs(field.answers["count"] - int(truth.sum())) <= (
                field.epsilon * max(field.answers["count"], int(truth.sum()))
            )
        assert suppressed > 0
