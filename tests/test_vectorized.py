"""Vectorized / sharded execution: representation and ledger equivalence.

The million-node core adds two more execution paths on top of batched and
per-edge: ``"vectorized"`` (whole-array level sweeps over the numpy-backed
:class:`~repro.network.FlatTree`) and ``"sharded"`` (the same sweeps fanned
out over subtree shards in worker processes).  Their contract is the one the
batched core already honours against the per-edge reference: *everything the
paper measures is identical* — per-node bits, totals, messages, rounds,
per-protocol breakdowns, answers — for the same seeds, under every radio,
through arbitrary fault scripts.

These tests build twin networks (identical graphs, items, trees, identically
seeded radios), run the reference :class:`ContinuousQueryEngine` on one and
:class:`VectorStreamEngine` on the other, and compare full ledger snapshots
field by field.  Also here: unit tests for the varint kernels against the
scalar ``repro._util.bits`` they mirror, the :class:`ArrayLedger` fast path,
``FlatTree.from_arrays``, the rewire cache-invalidation regression, and the
loud-fallback behaviour when numpy is absent.
"""

import random
import warnings

import pytest

from repro._util import bits as scalar_bits
from repro._util.fastpath import HAVE_NUMPY, FallbackWarning
from repro.network.radio import DuplicatingRadio, LossyRadio, ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import CountQuery, MedianQuery

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vectorized paths require the 'fast' extra (numpy)"
)

if HAVE_NUMPY:
    import numpy as np

RADIOS = {
    "reliable": lambda seed: ReliableRadio(),
    "lossy": lambda seed: LossyRadio(loss_rate=0.35, seed=seed),
    "duplicating": lambda seed: DuplicatingRadio(duplicate_rate=0.3, seed=seed),
}
TOPOLOGIES = ["grid", "line", "star", "random_geometric", "random_tree"]
DOMAIN = 1 << 10


def assert_ledgers_identical(left_net, right_net):
    left = left_net.ledger.snapshot()
    right = right_net.ledger.snapshot()
    assert left.per_node_bits == right.per_node_bits
    assert left.total_bits == right.total_bits
    assert left.max_node_bits == right.max_node_bits
    assert left.messages == right.messages
    assert left.rounds == right.rounds
    assert left.per_protocol_bits == right.per_protocol_bits


def make_network(execution, topology, radio_name, seed, num_nodes=36):
    rng = random.Random(seed * 7919 + 13)
    items = [rng.randrange(1, 400) for _ in range(num_nodes)]
    return SensorNetwork.from_items(
        items,
        topology=topology,
        seed=seed,
        radio=RADIOS[radio_name](seed),
        execution=execution,
    )


def drive_engines(networks, engines, epochs, seed, fault_script=None):
    """Run identical update streams (and optional faults) over twin engines."""
    from repro.faults import FaultEngine

    faults = [
        FaultEngine(network, script=fault_script(network)) if fault_script else None
        for network in networks
    ]
    rng_template = random.Random(seed + 101)
    per_epoch_updates = []
    node_ids = networks[0].node_ids()
    for _ in range(epochs):
        updates = {}
        for _ in range(max(4, len(node_ids) // 6)):
            node = rng_template.choice(node_ids)
            updates[node] = [
                rng_template.randrange(DOMAIN)
                for _ in range(rng_template.randrange(5))
            ]
        per_epoch_updates.append(updates)
    records = []
    for engine, fault_engine in zip(engines, faults):
        rows = []
        for epoch, updates in enumerate(per_epoch_updates):
            if fault_engine is not None:
                report = fault_engine.step(epoch)
                if report.election is not None:
                    engine.apply_root_change(report.election)
                engine.apply_repair(report.repair)
            record = engine.advance_epoch(dict(updates))
            rows.append((record.answers, record.bits, record.transmissions))
        records.append(rows)
        if hasattr(engine, "close"):
            engine.close()
    return records


# --------------------------------------------------------------------------- #
# Kernel arithmetic: array varints == scalar varints
# --------------------------------------------------------------------------- #
@needs_numpy
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

    def test_exactness_guard_trips_beyond_2_to_53(self):
        from repro.exceptions import ConfigurationError
        from repro.streaming.vector_kernels import varint_bits_array

        with pytest.raises(ConfigurationError):
            varint_bits_array(np.asarray([1 << 53], dtype=np.int64))


# --------------------------------------------------------------------------- #
# ArrayLedger: the vectorized charge path is the ledger, not a shadow of it
# --------------------------------------------------------------------------- #
@needs_numpy
class TestArrayLedger:
    def test_charge_array_matches_scalar_charges(self):
        from repro.network.accounting import ArrayLedger, CommunicationLedger

        rng = random.Random(3)
        senders = [rng.randrange(50) for _ in range(300)]
        receivers = [rng.randrange(50) for _ in range(300)]
        sizes = [rng.randrange(1, 40) for _ in range(300)]

        reference = CommunicationLedger()
        for s, r, b in zip(senders, receivers, sizes):
            reference.charge(s, r, b, protocol="p")
        reference.advance_round(4)

        array_ledger = ArrayLedger(50)
        array_ledger.charge_array(
            np.asarray(senders), np.asarray(receivers), np.asarray(sizes), protocol="p"
        )
        array_ledger.advance_round(4)

        left, right = reference.snapshot(), array_ledger.snapshot()
        assert left.per_node_bits == right.per_node_bits
        assert left.total_bits == right.total_bits
        assert left.max_node_bits == right.max_node_bits
        assert left.messages == right.messages
        assert left.rounds == right.rounds
        assert left.per_protocol_bits == right.per_protocol_bits

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
        """numpy indexing would bill ``-1`` to the last node; the dense
        ledger refuses instead, like the network does for the dict one."""
        from repro.exceptions import ConfigurationError
        from repro.network.accounting import ArrayLedger, CommunicationLedger

        ledger = ArrayLedger(4)
        ledger.charge(0, 1, 3, protocol="ok")
        before = ledger.snapshot()
        stray = CommunicationLedger()
        stray.charge(0, bad, 8)
        attempts = [
            lambda: ledger.charge(bad, 0, 8),
            lambda: ledger.charge(0, bad, 8),
            lambda: ledger.charge_array([1, bad], [2, 3], [5, 5]),
            lambda: ledger.charge_array([1, 2], [bad, 3], [5, 5], copies=[2, 1]),
            lambda: ledger.charge_batch([(1, 2), (3, bad)], [5, 5]),
            lambda: ledger.merge(stray),
        ]
        for attempt in attempts:
            with pytest.raises(ConfigurationError):
                attempt()
            assert ledger.snapshot() == before

    def test_charge_batch_slices_leave_the_same_ledger(self, monkeypatch):
        """A batch longer than the conversion slice: same ledger as the dict
        one, and a bad id in the *last* slice still charges nothing."""
        from repro.exceptions import ConfigurationError
        from repro.network import accounting

        monkeypatch.setattr(accounting, "_BATCH_CHUNK", 64)
        rng = random.Random(9)
        links = [(rng.randrange(40), rng.randrange(40)) for _ in range(300)]
        sizes = [rng.randrange(0, 30) for _ in range(300)]
        copies = [rng.randrange(0, 3) for _ in range(300)]
        for repeats in (None, copies):
            reference = accounting.CommunicationLedger()
            reference.charge_batch(links, sizes, repeats, protocol="p")
            dense = accounting.ArrayLedger(40)
            dense.charge_batch(links, sizes, repeats, protocol="p")
            assert dense.snapshot() == reference.snapshot()
        dense = accounting.ArrayLedger(40)
        with pytest.raises(ConfigurationError):
            dense.charge_batch(links[:-1] + [(3, 40)], sizes)
        with pytest.raises(ConfigurationError):
            dense.charge_batch(links, sizes[:-1] + [-1])
        assert dense.snapshot() == accounting.ArrayLedger(40).snapshot()

    @pytest.mark.parametrize("into", ["array", "dict"])
    @pytest.mark.parametrize("other", ["array", "dict"])
    def test_merge_works_between_both_classes(self, into, other):
        """``a.merge(b)`` for every class pairing equals the same charges
        replayed on one ledger, and an open mark sees the merge as a delta."""
        from repro.network.accounting import ArrayLedger, CommunicationLedger

        def make(kind):
            return ArrayLedger(30) if kind == "array" else CommunicationLedger()

        rng = random.Random(11)
        charges = [
            (rng.randrange(30), rng.randrange(30), rng.randrange(1, 50), f"p{k % 3}")
            for k in range(120)
        ]
        target, source, replay = make(into), make(other), CommunicationLedger()
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
        assert {
            node: bits for node, bits in target.node_deltas_since(mark).items() if bits
        } == replay.node_deltas_since(replay_mark)


# --------------------------------------------------------------------------- #
# FlatTree: from_arrays and the rewire cache-invalidation regression
# --------------------------------------------------------------------------- #
@needs_numpy
class TestFlatTreeArrays:
    def test_from_arrays_matches_from_spanning_tree(self):
        from repro.network.flat_tree import FlatTree

        network = make_network("batched", "grid", "reliable", 0)
        parents = np.full(network.num_nodes, -1, dtype=np.int64)
        for node, parent in network.tree.parent.items():
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
        patched = flat.rewire(removed=[5], reparented={4: 2}, depths={4: 2})
        # Build the expectation directly: node 5 gone, node 4 under node 2.
        expected = FlatTree.from_arrays([-1, 0, 0, 1, 2])
        assert patched.to_lists() == expected.to_lists()
        assert patched.up_links == expected.up_links
        assert patched.up_link_array.tolist() == [list(link) for link in expected.up_links]
        assert patched.down_links == expected.down_links
        assert patched.up_links != stale_up
        assert patched.down_links != stale_down
        # The source instance's caches are untouched (rewire is pure).
        assert flat.up_links == stale_up
        assert flat.down_links == stale_down


# --------------------------------------------------------------------------- #
# Representation equivalence: vectorized / sharded vs the batched reference
# --------------------------------------------------------------------------- #
@needs_numpy
class TestStreamingEquivalence:
    def _twin_run(self, execution, topology, radio_name, seed, fault_script=None,
                  epochs=5, num_nodes=36, epsilon=0.1, **engine_kwargs):
        from repro.streaming.vector_engine import VectorStreamEngine

        reference_net = make_network("batched", topology, radio_name, seed, num_nodes)
        vector_net = make_network(execution, topology, radio_name, seed, num_nodes)
        engines = [
            ContinuousQueryEngine(reference_net, epsilon=epsilon),
            VectorStreamEngine(vector_net, epsilon=epsilon, **engine_kwargs),
        ]
        for engine in engines:
            engine.register("count", CountQuery())
        records = drive_engines(
            [reference_net, vector_net], engines, epochs, seed, fault_script
        )
        assert records[0] == records[1]
        assert_ledgers_identical(reference_net, vector_net)
        return reference_net, vector_net

    @pytest.mark.parametrize("radio_name", sorted(RADIOS))
    @pytest.mark.parametrize("topology", ["grid", "line", "random_geometric"])
    def test_vectorized_ledger_identical(self, topology, radio_name):
        self._twin_run("vectorized", topology, radio_name, seed=1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vectorized_under_faults(self, seed):
        from repro.workloads.faults import crash_storm_script, link_storm_script

        def script(network):
            return crash_storm_script(
                network.node_ids(), epoch=1, fraction=0.2, seed=seed, rejoin_epoch=3
            ).merge(
                link_storm_script(
                    network.graph, epoch=1, fraction=0.1, seed=seed, restore_epoch=3
                )
            )

        self._twin_run("vectorized", "grid", "reliable", seed, fault_script=script)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_vectorized_survives_root_failover(self, seed):
        from repro.faults import FaultScript, RootCrash
        from repro.workloads.faults import churn_script

        def script(network):
            return (
                FaultScript()
                .add(2, RootCrash())
                .merge(
                    churn_script(
                        network.node_ids(), epochs=5, churn_rate=0.08, seed=seed
                    )
                )
            )

        self._twin_run("vectorized", "grid", "lossy", seed, fault_script=script)

    def test_sharded_inline_ledger_identical(self):
        self._twin_run("sharded", "grid", "reliable", seed=2, shard_processes=0)

    def test_sharded_fork_ledger_identical(self):
        self._twin_run("sharded", "grid", "reliable", seed=3, shard_processes=2)

    def test_sharded_under_faults(self):
        from repro.workloads.faults import crash_storm_script

        def script(network):
            return crash_storm_script(
                network.node_ids(), epoch=1, fraction=0.25, seed=5, rejoin_epoch=3
            )

        self._twin_run(
            "sharded", "grid", "reliable", seed=5,
            fault_script=script, shard_processes=0,
        )

    def test_sharded_rejects_lossy_radios(self):
        """Sharded workers charge private ledgers with no RNG — loud refusal."""
        from repro.exceptions import ConfigurationError
        from repro.streaming.vector_engine import VectorStreamEngine

        network = make_network("sharded", "grid", "lossy", 0)
        engine = VectorStreamEngine(network, epsilon=0.1, shard_processes=0)
        engine.register("count", CountQuery())
        with pytest.raises(ConfigurationError):
            engine.advance_epoch({1: [3, 4]})

    def test_vectorized_rejects_non_count_queries(self):
        from repro.exceptions import ConfigurationError
        from repro.streaming.vector_engine import VectorStreamEngine

        network = make_network("vectorized", "grid", "reliable", 0)
        engine = VectorStreamEngine(network, epsilon=0.1)
        with pytest.raises(ConfigurationError):
            engine.register("median", MedianQuery(universe_size=DOMAIN))

    def test_engine_for_dispatches_on_execution_mode(self):
        from repro.streaming.vector_engine import VectorStreamEngine, engine_for

        assert isinstance(
            engine_for(make_network("vectorized", "grid", "reliable", 0)),
            VectorStreamEngine,
        )
        reference = engine_for(make_network("batched", "grid", "reliable", 0))
        assert type(reference) is ContinuousQueryEngine

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("radio_name", sorted(RADIOS))
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_randomized_storms_are_ledger_identical(self, topology, radio_name, seed):
        """The full sweep: every topology × radio × a compound fault script."""
        from repro.workloads.faults import (
            churn_script,
            crash_storm_script,
            link_storm_script,
        )

        rng = random.Random(seed * 6151 + 3)
        num_nodes = rng.choice([25, 36, 49, 64])

        def script(network):
            return crash_storm_script(
                network.node_ids(), epoch=1, fraction=0.2, seed=seed, rejoin_epoch=3
            ).merge(
                link_storm_script(
                    network.graph, epoch=1, fraction=0.1, seed=seed, restore_epoch=4
                )
            ).merge(
                churn_script(
                    network.node_ids(), epochs=6, churn_rate=0.1, seed=seed
                )
            )

        self._twin_run(
            "vectorized", topology, radio_name, seed,
            fault_script=script, epochs=6, num_nodes=num_nodes,
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sharded_storms_at_scale(self, seed):
        from repro.workloads.faults import crash_storm_script, churn_script

        def script(network):
            return crash_storm_script(
                network.node_ids(), epoch=1, fraction=0.15, seed=seed, rejoin_epoch=3
            ).merge(
                churn_script(network.node_ids(), epochs=6, churn_rate=0.05, seed=seed)
            )

        self._twin_run(
            "sharded", "random_geometric", "reliable", seed,
            fault_script=script, epochs=6, num_nodes=100, shard_processes=2,
        )


# --------------------------------------------------------------------------- #
# VectorField: the standalone million-node surface
# --------------------------------------------------------------------------- #
@needs_numpy
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


# --------------------------------------------------------------------------- #
# Fallback: no numpy must be loud, not slow-and-silent
# --------------------------------------------------------------------------- #
class TestFallback:
    def test_engine_for_warns_once_without_numpy(self, monkeypatch):
        from repro._util import fastpath
        from repro.streaming import vector_engine
        from repro.streaming.vector_engine import engine_for

        monkeypatch.setattr(vector_engine, "np", None)
        monkeypatch.setattr(fastpath, "_warned", set())
        network = SensorNetwork.from_items(
            [1] * 9, topology="grid", execution="vectorized"
        )
        with pytest.warns(FallbackWarning, match="vectorized streaming"):
            engine = engine_for(network)
        assert type(engine) is ContinuousQueryEngine
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second call: silent
            engine_for(network)

    def test_require_numpy_raises_configuration_error(self, monkeypatch):
        from repro._util import fastpath
        from repro.exceptions import ConfigurationError

        monkeypatch.setattr(fastpath, "np", None)
        with pytest.raises(ConfigurationError, match="fast"):
            fastpath.require_numpy("test feature")
