"""Root fail-over: charged election, re-rooting and recovery.

The election is the last piece of the fault pipeline to be charged, and it
crosses every layer — the alive-mask and root identity on the network, the
seeded repair, the streaming layer's cache migration, and the per-epoch
accounting — so this suite tests each layer's contract.  That every path
elects, re-roots and charges exactly like the per-edge reference is
``tests/test_oracle.py``'s ``RootCrash`` rule.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    NodeCrash,
    RootCrash,
    RootElection,
    TreeRepair,
    run_faulty_stream,
)
from repro.network.radio import ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import CountQuery
from repro.workloads.faults import root_failover_script

def fresh_network(num_nodes=16, topology="grid", execution="batched", **kwargs):
    network = SensorNetwork.from_items(
        [7] * num_nodes, topology=topology, execution=execution, **kwargs
    )
    return network


class StaticStream:
    """A stream that assigns once and then never changes anything."""

    def __init__(self, num_nodes):
        self.num_nodes = num_nodes

    def initial(self):
        return {node: [node + 1] for node in range(self.num_nodes)}

    def step(self, epoch):
        return {}


# --------------------------------------------------------------------------- #
# The network-level contract: root identity and the kill guard
# --------------------------------------------------------------------------- #
class TestRootIdentity:
    def test_kill_root_still_guarded_by_default(self):
        network = fresh_network(9)
        with pytest.raises(ConfigurationError):
            network.kill_node(network.root_id)

    def test_allow_root_opts_in(self):
        network = fresh_network(9)
        network.kill_node(network.root_id, allow_root=True)
        assert not network.is_alive(0)
        assert network.items_of(0) == []

    def test_set_root_moves_the_flags(self):
        network = fresh_network(9)
        network.set_root(5)
        assert network.root_id == 5
        assert network.node(5).is_root
        assert not network.node(0).is_root
        assert network.root == network.node(5)

    def test_set_root_rejects_dead_and_unknown_nodes(self):
        network = fresh_network(9)
        network.kill_node(4)
        with pytest.raises(ConfigurationError):
            network.set_root(4)
        with pytest.raises(ConfigurationError):
            network.set_root(99)


# --------------------------------------------------------------------------- #
# The election protocol itself
# --------------------------------------------------------------------------- #
class TestRootElection:
    def test_requires_a_dead_root(self):
        network = fresh_network(9)
        with pytest.raises(ConfigurationError):
            RootElection().elect(network)

    def test_requires_a_survivor(self):
        network = fresh_network(1, topology="line")
        network.kill_node(0, allow_root=True)
        with pytest.raises(ConfigurationError):
            RootElection().elect(network)

    def test_highest_surviving_id_wins_and_is_charged(self):
        network = fresh_network(16)
        network.kill_node(0, allow_root=True)
        result = RootElection().elect(network)
        assert result.old_root == 0
        assert result.new_root == 15
        assert network.root_id == 15
        assert network.node(15).is_root
        assert result.participants == 15
        assert result.election_bits > 0
        assert result.election_messages > 0
        snapshot = network.ledger.snapshot()
        assert snapshot.per_protocol_bits["faults:election"] == result.election_bits
        # The reversed path runs from the winner to its fragment's old top,
        # and the flips mirror it edge by edge.
        assert result.reversed_path[0] == 15
        assert len(result.flips) == len(result.reversed_path) - 1
        assert 15 in result.winner_fragment

    def test_partitioned_survivors_take_no_part(self):
        # Killing node 4 of a 9-node line (with root 0 dead too) cuts
        # {1, 2, 3} off from the winner's side {5, 6, 7, 8}.
        network = fresh_network(9, topology="line")
        network.kill_node(0, allow_root=True)
        network.kill_node(4)
        result = RootElection().elect(network)
        assert result.new_root == 8
        assert result.participants == 4
        assert set(result.winner_fragment) == {5, 6, 7, 8}

    def test_election_leaves_the_tree_to_the_repair(self):
        network = fresh_network(16)
        old_parent = network.flat_tree.parent_map()
        network.kill_node(0, allow_root=True)
        RootElection().elect(network)
        assert network.flat_tree.parent_map() == old_parent  # untouched by design


# --------------------------------------------------------------------------- #
# Repair integration: the dead-root path defers to the election
# --------------------------------------------------------------------------- #
class TestRepairFailover:
    def test_dead_root_without_election_is_an_error(self):
        network = fresh_network(16)
        network.kill_node(0, allow_root=True)
        with pytest.raises(ConfigurationError, match="election"):
            TreeRepair().repair(network)

    @pytest.mark.parametrize("execution", ["batched", "per-edge"])
    def test_seeded_repair_respans_the_survivors(self, execution, spanning):
        network = fresh_network(36, execution=execution)
        network.kill_node(0, allow_root=True)
        repair = TreeRepair(election=RootElection())
        result = repair.repair(network)
        assert result.election is not None
        assert result.election.new_root == 35
        assert network.root_id == 35
        assert 0 in result.removed
        spanning(network.flat_tree, network.links, network.alive_node_ids())
        # The repair's own bill excludes the election's.
        snapshot = network.ledger.snapshot()
        assert result.control_bits == snapshot.per_protocol_bits.get(
            "faults:repair", 0
        )

    def test_rebuild_strategy_still_elects_first(self, spanning):
        network = fresh_network(36)
        network.kill_node(0, allow_root=True)
        result = TreeRepair(strategy="rebuild", election=RootElection()).repair(
            network
        )
        assert result.rebuilt
        assert result.election is not None
        assert network.flat_tree.root_id == network.root_id == 35
        spanning(network.flat_tree, network.links, network.flat_tree.node_ids)


# --------------------------------------------------------------------------- #
# Engine integration: the scripted RootCrash event
# --------------------------------------------------------------------------- #
class TestRootCrashEvent:
    def test_failover_happens_in_the_crash_epoch(self, spanning):
        network = fresh_network(25)
        script = FaultScript().add(1, RootCrash())
        faults = FaultEngine(network, script=script)
        quiet = faults.step(0)
        assert quiet.election is None
        report = faults.step(1)
        assert report.crashed == (0,)
        assert report.election is not None
        assert report.election.new_root == 24
        assert network.root_id == 24
        spanning(network.flat_tree, network.links, network.flat_tree.node_ids)

    def test_second_blow_hits_the_new_root(self, spanning):
        network = fresh_network(25)
        script = FaultScript().add(1, RootCrash()).add(3, RootCrash())
        faults = FaultEngine(network, script=script)
        for epoch in range(4):
            faults.step(epoch)
        # 24 won the first election, died in the second, 23 succeeded it.
        assert network.root_id == 23
        assert not network.is_alive(24)
        spanning(network.flat_tree, network.links, network.flat_tree.node_ids)

    def test_node_crash_on_the_current_root_fails_over(self):
        """A crash is a crash: hitting whoever is root triggers an election.

        Scripts are written against node ids, and after a fail-over any id
        can be the root — so NodeCrash on the current root behaves exactly
        like RootCrash (applied immediately, even under a charged detector:
        the root's silence at the epoch tick is self-announcing).
        """
        network = fresh_network(9)
        faults = FaultEngine(
            network,
            script=FaultScript().add(0, NodeCrash(0)),
            detector=HeartbeatDetector(period=4),
        )
        report = faults.step(0)
        assert report.election is not None
        assert network.root_id == 8
        assert not network.is_alive(0)

    def test_stochastic_crashes_spare_the_current_root(self):
        network = fresh_network(25)
        script = FaultScript().add(1, RootCrash())
        faults = FaultEngine(network, script=script, crash_rate=0.4, seed=3)
        for epoch in range(5):
            faults.step(epoch)
        assert network.is_alive(network.root_id)

    def test_failover_with_charged_detector_reveals_zombies(self, spanning):
        network = fresh_network(25)
        script = FaultScript().add(1, NodeCrash(7)).add(2, RootCrash())
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=4)
        )
        faults.step(0)
        report = faults.step(1)  # 7 dies silently: no sweep until epoch 4
        assert report.detected == ()
        assert 7 in faults.undetected_dead
        report = faults.step(2)
        # The root's death is self-announcing, the election runs now, and
        # the repair pass doubles as a liveness probe that unmasks node 7.
        assert report.election is not None
        assert 7 in report.detected
        assert report.detection_latencies == (1,)
        assert not network.is_alive(7)
        assert network.root_id == 24
        # No sweep was due this epoch (period 4): the probe revealed the
        # zombie at the repair's already-charged cost, not the heartbeat's.
        assert report.detection_bits == 0
        spanning(network.flat_tree, network.links, network.flat_tree.node_ids)


# --------------------------------------------------------------------------- #
# Streaming recovery: cache migration along the reversed root path
# --------------------------------------------------------------------------- #
class TestStreamRecovery:
    def _run(self, num_nodes=36, crash_epoch=2, epochs=6, execution="batched", radio=None):
        network = SensorNetwork.from_items(
            [0] * num_nodes, topology="grid", seed=0, execution=execution, radio=radio
        )
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.0)
        engine.register("count", CountQuery())
        script = root_failover_script(
            network.node_ids(), crash_epoch=crash_epoch
        )
        faults = FaultEngine(network, script=script)
        trace = run_faulty_stream(
            engine, StaticStream(num_nodes), faults, epochs=epochs
        )
        return network, engine, trace

    def test_decomposition_holds_every_epoch(self):
        _, _, trace = self._run()
        for record in trace:
            assert record.total_bits == (
                record.repair_bits
                + record.query_bits
                + record.detection_bits
                + record.election_bits
            )
        assert trace.election_count == 1
        assert trace.total_election_bits > 0

    def test_answers_move_to_the_new_root_exactly(self, kernel_radio):
        network, engine, trace = self._run(radio=kernel_radio)
        crash = trace[2]
        assert crash.new_root == 35
        assert crash.answers["count"] == 35.0  # the dead root's reading is gone
        assert crash.errors["count"] == 0.0
        assert engine.answers()["count"] == 35.0
        # The old root's per-query state died with it: no fold entry, or
        # no sweep row and no parked copy.
        kernel = engine._queries["count"]
        if type(kernel_radio) is ReliableRadio:
            assert 0 not in kernel.flat.index and 0 not in kernel.parked
        else:
            assert 0 not in kernel.nodes
        assert network.root_id == 35

    def test_migration_beats_cold_resync(self):
        """After the fail-over epoch a static field goes silent again."""
        _, _, trace = self._run(epochs=6, crash_epoch=2)
        assert trace[2].election_bits > 0
        for record in trace.records[3:]:
            assert record.total_bits == 0, record
        # ...and the fail-over epoch itself resynchronised far fewer nodes
        # than the field holds (only repaired paths retransmit).
        assert 0 < trace[2].dirty_nodes < 36

    @pytest.mark.parametrize("execution", ["batched", "per-edge"])
    def test_apply_root_change_is_idempotent(self, execution):
        network, engine, trace = self._run(execution=execution)
        election_like = trace[2]
        assert election_like.new_root is not None
        # Re-applying the same handover (e.g. a driver replaying a report)
        # must not corrupt the caches: the next epoch still costs nothing.
        faults_free = engine.advance_epoch({})
        assert faults_free.bits == 0
