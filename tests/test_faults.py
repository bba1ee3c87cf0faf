"""Fault-tolerance engine: events, self-healing trees, recovery, accuracy."""

import random

import numpy as np
import pytest

from repro.analysis.experiments import (
    run_fault_tolerance_study,
    run_root_failover_study,
)
from repro.exceptions import ConfigurationError, DeadNodeError
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    LinkDrop,
    LinkRestore,
    NodeCrash,
    NodeRejoin,
    RegionalOutage,
    RootElection,
    TreeRepair,
    run_faulty_stream,
)
from repro.faults.events import expand_regional_outage
from repro.network.radio import RadioModel
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import CountQuery, MedianQuery
from repro.workloads.faults import (
    churn_script,
    crash_storm_script,
    link_storm_script,
    regional_outage_script,
    root_failover_script,
)
from repro.workloads.streams import ChurnStream, DriftStream

DOMAIN = 1 << 12


def fresh_network(num_nodes=36, topology="grid", **kwargs):
    network = SensorNetwork.from_items(
        [7] * num_nodes, topology=topology, **kwargs
    )
    return network


def count_engine(network, epsilon=0.0):
    engine = ContinuousQueryEngine(network, epsilon=epsilon)
    engine.register("count", CountQuery())
    return engine


class TestFaultScript:
    def test_add_and_events_at(self):
        script = FaultScript()
        script.add(2, NodeCrash(5), NodeCrash(6)).add(4, NodeRejoin(5, items=(9,)))
        assert script.events_at(2) == [NodeCrash(5), NodeCrash(6)]
        assert script.events_at(3) == []
        assert script.horizon == 5
        assert len(script) == 3
        assert script.epochs() == [2, 4]

    def test_merge_keeps_both_schedules(self):
        left = FaultScript({1: [NodeCrash(1)]})
        right = FaultScript({1: [NodeCrash(2)], 3: [NodeRejoin(1)]})
        merged = left.merge(right)
        assert merged.events_at(1) == [NodeCrash(1), NodeCrash(2)]
        assert merged.events_at(3) == [NodeRejoin(1)]

    def test_non_event_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultScript().add(0, "crash 5")

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultScript().add(-1, NodeCrash(1))

    def test_iteration_is_epoch_ordered(self):
        script = FaultScript({5: [NodeCrash(1)], 2: [NodeCrash(2)]})
        assert [epoch for epoch, _ in script] == [2, 5]


class TestRegionalOutage:
    def test_ball_expansion(self):
        network = fresh_network(25)  # 5x5 grid
        crashes = expand_regional_outage(
            network.graph, RegionalOutage(center=12, radius=1)
        )
        assert {crash.node_id for crash in crashes} == {7, 11, 12, 13, 17}

    def test_root_is_protected(self):
        network = fresh_network(25)
        crashes = expand_regional_outage(
            network.graph, RegionalOutage(center=0, radius=10), protect=(0,)
        )
        assert 0 not in {crash.node_id for crash in crashes}
        assert len(crashes) == 24

    def test_unknown_center_rejected(self):
        network = fresh_network(9)
        with pytest.raises(ConfigurationError):
            expand_regional_outage(network.graph, RegionalOutage(center=99, radius=1))


class TestAliveMask:
    def test_kill_and_revive(self):
        network = fresh_network(9)
        network.kill_node(4)
        assert not network.is_alive(4)
        assert network.num_alive == 8
        assert 4 not in network.alive_node_ids()
        assert network.dead_node_ids() == [4]
        assert network.items_of(4) == []  # readings are lost on crash
        network.revive_node(4)
        assert network.is_alive(4)
        assert network.num_alive == 9

    def test_root_cannot_crash(self):
        network = fresh_network(9)
        with pytest.raises(ConfigurationError):
            network.kill_node(network.root_id)

    @pytest.mark.parametrize("execution", ["batched", "per-edge"])
    def test_sends_to_dead_nodes_raise(self, execution):
        network = fresh_network(9, execution=execution)
        network.kill_node(4)
        with pytest.raises(DeadNodeError):
            network.send(3, 4, "x", 8)
        with pytest.raises(DeadNodeError):
            network.send_batch([(3, 4)], [8])
        with pytest.raises(DeadNodeError):
            network.send_batch([(4, 3)], [8], require_edge=False)

    def test_attached_items_follow_the_tree(self):
        network = fresh_network(9, topology="line")
        repair = TreeRepair()
        network.kill_node(4)  # splits the line; 5..8 unreachable
        repair.repair(network)
        assert network.attached_node_ids() == [0, 1, 2, 3]
        assert network.attached_items() == [7] * 4
        assert network.num_alive == 8  # 5..8 alive but detached


class TestTreeRepair:
    def test_leaf_crash_is_local(self):
        network = fresh_network(16)
        leaf = max(
            network.tree.parent, key=lambda n: (network.tree.depth[n], n)
        )
        parent = network.tree.parent[leaf]
        network.kill_node(leaf)
        result = TreeRepair().repair(network)
        assert result.strategy == "incremental"
        assert result.parent_changed == ()
        assert result.removed == (leaf,)
        assert (parent, leaf) in result.child_losses
        assert result.control_bits == 0  # nothing to re-attach
        network.tree.check_invariants()
        network.tree.validate(
            network.graph, covering=set(network.alive_node_ids())
        )

    def test_internal_crash_reattaches_orphans(self):
        network = fresh_network(36)
        tree = network.tree
        internal = next(
            node
            for node in tree.nodes_top_down()
            if tree.children[node] and tree.parent[node] is not None
        )
        network.kill_node(internal)
        result = TreeRepair().repair(network)
        assert result.strategy == "incremental"
        assert result.removed == (internal,)
        assert result.detached == ()  # the grid is 2-connected enough
        assert len(result.parent_changed) >= 1
        assert result.control_bits > 0
        assert set(network.tree.parent) == set(network.alive_node_ids())
        network.tree.check_invariants()
        network.tree.validate(
            network.graph, covering=set(network.alive_node_ids())
        )

    def test_line_cut_leaves_detached_tail(self):
        network = fresh_network(10, topology="line")
        network.kill_node(4)
        result = TreeRepair().repair(network)
        assert result.detached == (5, 6, 7, 8, 9)
        assert set(network.tree.parent) == {0, 1, 2, 3}
        # The cut heals when the bridge node comes back.
        network.revive_node(4)
        healed = TreeRepair().repair(network)
        assert healed.detached == ()
        assert set(network.tree.parent) == set(range(10))
        assert 4 in healed.parent_changed
        network.tree.check_invariants()

    def test_dropped_tree_edge_reroutes(self):
        network = fresh_network(36)
        tree = network.tree
        child = next(
            node for node in tree.nodes_bottom_up() if tree.parent[node] is not None
        )
        parent = tree.parent[child]
        network.drop_link(child, parent)
        result = TreeRepair().repair(network)
        assert child in result.parent_changed
        assert (parent, child) in result.child_losses
        assert network.tree.parent[child] != parent
        network.tree.check_invariants()
        network.tree.validate(
            network.graph, covering=set(network.alive_node_ids())
        )

    def test_repair_is_idempotent(self):
        network = fresh_network(36)
        network.kill_node(7)
        repair = TreeRepair()
        first = repair.repair(network)
        assert first.changed_anything
        second = repair.repair(network)
        assert second.strategy == "noop"
        assert not second.changed_anything
        assert second.control_bits == 0

    def test_repair_traffic_is_charged_under_its_protocol(self):
        network = fresh_network(36)
        tree = network.tree
        internal = next(
            node
            for node in tree.nodes_top_down()
            if tree.children[node] and tree.parent[node] is not None
        )
        network.kill_node(internal)
        result = TreeRepair().repair(network)
        per_protocol = network.ledger.per_protocol_bits()
        assert per_protocol.get("faults:repair", 0) == result.control_bits > 0

    def test_threshold_fallback_rebuilds(self):
        network = fresh_network(36)
        network.kill_node(7)
        result = TreeRepair(rebuild_threshold=1e-9).repair(network)
        assert result.rebuilt
        assert result.strategy == "rebuild"
        assert result.control_bits > 0
        network.tree.check_invariants()

    def test_rebuild_strategy_always_rebuilds(self):
        network = fresh_network(36)
        network.kill_node(7)
        result = TreeRepair(strategy="rebuild").repair(network)
        assert result.rebuilt
        # Flood cost: two tokens per alive edge plus one ack per node — far
        # more than the incremental handshake for one crash.
        incremental_network = fresh_network(36)
        incremental_network.kill_node(7)
        incremental = TreeRepair().repair(incremental_network)
        assert result.control_bits > 5 * incremental.control_bits

    def test_rebuild_respects_degree_bound(self):
        network = fresh_network(36, degree_bound=3)
        network.kill_node(7)
        result = TreeRepair(strategy="rebuild").repair(network)
        assert result.rebuilt
        assert network.tree.max_degree() <= 3  # a grid supports the bound
        network.tree.check_invariants()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            TreeRepair(strategy="hope")
        with pytest.raises(ConfigurationError):
            TreeRepair(rebuild_threshold=0)


class TestFaultEngine:
    def test_scripted_crash_and_rejoin(self):
        network = fresh_network(16)
        script = FaultScript({0: [NodeCrash(5)], 2: [NodeRejoin(5, items=(3, 4))]})
        engine = FaultEngine(network, script=script)
        report = engine.step(0)
        assert report.crashed == (5,)
        assert not network.is_alive(5)
        quiet = engine.step(1)
        assert not quiet.had_faults
        assert quiet.repair.strategy == "noop"
        back = engine.step(2)
        assert back.rejoined == (5,)
        assert network.items_of(5) == [3, 4]
        assert 5 in network.tree.parent

    def test_double_crash_is_single_event(self):
        network = fresh_network(16)
        script = FaultScript({0: [NodeCrash(5), NodeCrash(5)]})
        report = FaultEngine(network, script=script).step(0)
        assert report.crashed == (5,)

    def test_link_drop_and_restore(self):
        network = fresh_network(16)
        edge = next(iter(network.graph.edges()))
        script = FaultScript(
            {0: [LinkDrop(*edge)], 1: [LinkRestore(*edge)]}
        )
        engine = FaultEngine(network, script=script)
        report = engine.step(0)
        assert report.dropped_links == (tuple(sorted(edge)),)
        assert not network.graph.has_edge(*edge)
        report = engine.step(1)
        assert report.restored_links == (tuple(sorted(edge)),)
        assert network.graph.has_edge(*edge)
        assert engine.dropped_edges == set()

    def test_stochastic_faults_are_seed_deterministic(self):
        histories = []
        for _ in range(2):
            network = fresh_network(49)
            engine = FaultEngine(
                network, seed=11, crash_rate=0.15, rejoin_rate=0.5
            )
            history = []
            for epoch in range(6):
                engine.step(epoch)
                history.append(tuple(network.dead_node_ids()))
            histories.append(history)
        assert histories[0] == histories[1]
        assert any(dead for dead in histories[0])  # faults actually happened

    def test_regional_outage_event(self):
        network = fresh_network(25)
        script = FaultScript({0: [RegionalOutage(center=12, radius=1)]})
        report = FaultEngine(network, script=script).step(0)
        assert set(report.crashed) == {7, 11, 12, 13, 17}
        network.tree.check_invariants()

    def test_quiet_epoch_charges_nothing(self):
        network = fresh_network(16)
        engine = FaultEngine(network)
        before = network.ledger.total_bits
        engine.step(0)
        assert network.ledger.total_bits == before


class TestScriptBuilders:
    def test_crash_storm_counts_and_rejoin(self):
        script = crash_storm_script(
            range(100), epoch=3, fraction=0.1, seed=0, rejoin_epoch=6
        )
        crashes = script.events_at(3)
        rejoins = script.events_at(6)
        assert len(crashes) == 10
        assert len(rejoins) == 10
        assert {c.node_id for c in crashes} == {r.node_id for r in rejoins}
        assert all(c.node_id != 0 for c in crashes)
        assert all(len(r.items) == 1 for r in rejoins)

    def test_crash_storm_rejoin_must_follow_storm(self):
        with pytest.raises(ConfigurationError):
            crash_storm_script(range(10), epoch=3, rejoin_epoch=3)

    def test_regional_outage_script_rejoins_the_ball(self):
        network = fresh_network(25)
        script = regional_outage_script(
            network.graph, epoch=1, radius=1, center=12, rejoin_epoch=4
        )
        assert script.events_at(1) == [RegionalOutage(center=12, radius=1)]
        rejoined = {event.node_id for event in script.events_at(4)}
        assert rejoined == {7, 11, 12, 13, 17}

    def test_churn_script_toggles_consistently(self):
        script = churn_script(range(30), epochs=10, churn_rate=0.3, seed=2)
        online = {node: True for node in range(30)}
        for _, event in script:
            if isinstance(event, NodeCrash):
                assert online[event.node_id]
                online[event.node_id] = False
            else:
                assert not online[event.node_id]
                online[event.node_id] = True
        assert online[0]  # the root never churns

    def test_link_storm_script(self):
        network = fresh_network(16)
        script = link_storm_script(
            network.graph, epoch=0, fraction=0.2, seed=0, restore_epoch=2
        )
        drops = script.events_at(0)
        restores = script.events_at(2)
        assert len(drops) == len(restores) > 0
        assert {d.edge for d in drops} == {r.edge for r in restores}


class TestStreamingRecovery:
    def test_count_stays_exact_through_storm_and_recovery(self):
        network = fresh_network(64)
        network.clear_items()
        engine = count_engine(network)
        script = crash_storm_script(
            network.node_ids(), epoch=2, fraction=0.2, seed=3, rejoin_epoch=4
        )
        faults = FaultEngine(network, script=script)
        trace = run_faulty_stream(
            engine, DriftStream(64, max_value=DOMAIN, seed=1), faults, epochs=6
        )
        for record in trace:
            assert record.errors["count"] == 0.0
        assert trace[2].crashes > 0 and trace[4].rejoins > 0
        assert trace[2].answers["count"] < trace[0].answers["count"]
        assert trace[5].answers["count"] == trace[0].answers["count"]

    def test_quiet_epoch_after_repair_costs_zero(self):
        network = fresh_network(36)
        engine = count_engine(network)
        engine.advance_epoch({})  # warm-up: full summaries
        faults = FaultEngine(network, script=FaultScript({0: [NodeCrash(7)]}))
        report = faults.step(0)
        engine.apply_repair(report.repair)
        engine.advance_epoch({})  # resync epoch
        record = engine.advance_epoch({})  # steady state again
        assert record.bits == 0
        assert record.transmissions == 0

    def test_resync_touches_only_repaired_paths(self):
        network = fresh_network(64)
        engine = count_engine(network)
        engine.advance_epoch({})
        total_nodes = network.num_nodes
        faults = FaultEngine(network, script=FaultScript({0: [NodeCrash(9)]}))
        report = faults.step(0)
        engine.apply_repair(report.repair)
        record = engine.advance_epoch({})
        # Far fewer transmissions than a recompute of every node.
        assert 0 < record.transmissions < total_nodes / 2
        assert record.answers["count"] == len(network.attached_items())

    def test_median_under_faults_stays_in_budget(self):
        network = fresh_network(49)
        network.clear_items()
        epsilon = 0.1
        engine = ContinuousQueryEngine(network, epsilon=epsilon)
        engine.register("count", CountQuery())
        engine.register(
            "median", MedianQuery(universe_size=DOMAIN + 1, compression=256)
        )
        script = crash_storm_script(
            network.node_ids(), epoch=2, fraction=0.15, seed=5
        )
        faults = FaultEngine(network, script=script)
        trace = run_faulty_stream(
            engine, DriftStream(49, max_value=DOMAIN, seed=2), faults, epochs=6
        )
        budget = engine.error_bounds()["median"] + 0.5
        assert trace.max_answer_error("median") <= budget
        assert trace.max_answer_error("count") <= epsilon * 49

    def test_updates_for_detached_nodes_are_ignored(self):
        network = fresh_network(10, topology="line")
        engine = count_engine(network)
        engine.advance_epoch({})
        faults = FaultEngine(network, script=FaultScript({0: [NodeCrash(4)]}))
        report = faults.step(0)
        engine.apply_repair(report.repair)
        # Nodes 5..9 are detached; feeding them updates must not corrupt
        # the answer (their readings cannot reach the root).
        record = engine.advance_epoch({8: [1, 2, 3]})
        assert record.answers["count"] == 4

    def test_incremental_and_rebuild_agree_on_answers(self):
        answers = []
        for strategy in ("incremental", "rebuild"):
            network = fresh_network(49)
            network.clear_items()
            engine = count_engine(network)
            script = crash_storm_script(
                network.node_ids(), epoch=1, fraction=0.2, seed=7, rejoin_epoch=3
            )
            faults = FaultEngine(
                network, script=script, repair=TreeRepair(strategy=strategy)
            )
            trace = run_faulty_stream(
                engine,
                DriftStream(49, max_value=DOMAIN, seed=3),
                faults,
                epochs=5,
            )
            answers.append([record.answers["count"] for record in trace])
        assert answers[0] == answers[1]


class TestRunFaultyStream:
    def test_record_bit_split_is_consistent(self):
        network = fresh_network(36)
        network.clear_items()
        engine = count_engine(network)
        script = crash_storm_script(network.node_ids(), epoch=1, fraction=0.2, seed=0)
        faults = FaultEngine(network, script=script)
        trace = run_faulty_stream(
            engine, DriftStream(36, max_value=DOMAIN, seed=0), faults, epochs=4
        )
        for record in trace:
            assert record.total_bits == record.repair_bits + record.query_bits
        assert trace.total_bits == trace.total_repair_bits + trace.total_query_bits
        assert trace.fault_epoch_bits == trace[1].total_bits

    def test_engines_must_share_a_network(self):
        network_a = fresh_network(9)
        network_b = fresh_network(9)
        engine = count_engine(network_a)
        faults = FaultEngine(network_b)
        with pytest.raises(ConfigurationError):
            run_faulty_stream(engine, DriftStream(9, seed=0), faults, epochs=1)

    def test_churn_stream_events_drive_the_fault_engine(self):
        network = fresh_network(36)
        network.clear_items()
        engine = count_engine(network)
        stream = ChurnStream(
            36, max_value=DOMAIN, seed=4, churn_rate=0.25, emit_events=True
        )
        faults = FaultEngine(network)
        trace = run_faulty_stream(engine, stream, faults, epochs=8)
        assert any(record.crashes for record in trace)
        assert any(record.rejoins for record in trace)
        # The network's alive population mirrors the stream's bookkeeping.
        assert network.num_alive == stream.online_count()
        for record in trace:
            assert record.errors["count"] == 0.0


class TestFaultToleranceStudy:
    def test_small_study_favours_incremental(self):
        measures = run_fault_tolerance_study(
            num_nodes=100,
            epochs=6,
            storm_epoch=2,
            rejoin_epoch=4,
            topology="grid",
            seed=0,
        ).measures
        assert measures["savings_factor"] > 2.0
        assert measures["incremental_fault_bits"] < measures["rebuild_fault_bits"]
        assert measures["rebuild_rebuilds"] >= 2
        assert measures["incremental_rebuilds"] == 0
        budget = measures["count_error_budget"]
        assert measures["incremental_max_count_error"] <= budget
        assert measures["rebuild_max_count_error"] <= budget

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fault_tolerance_study(num_nodes=25, scenario="meteor")

    def test_root_failover_study_smoke(self):
        """E13 at toy size: accounted handover, never worse than rebuilding."""
        measures = run_root_failover_study(
            num_nodes=64, epochs=5, crash_epoch=2, topology="grid", seed=0
        ).measures
        assert measures["new_root"] == 63
        assert measures["decomposition_holds"]
        assert measures["failover_election_bits"] > 0
        assert measures["failover_election_bits"] == measures["rebuild_election_bits"]
        assert measures["failover_fault_bits"] <= measures["rebuild_fault_bits"]
        assert measures["failover_max_count_error"] <= measures["count_error_budget"]


class TestAdoptionFallback:
    """A permanently-failing handshake falls back to the next candidate.

    ROADMAP's "Repair under loss" gap: a DeliveryError during an adoption
    handshake used to abort the whole epoch.  The repair now tries the
    orphan unit's next candidate attachment point and aborts only when
    every candidate is exhausted — identically on both execution paths.
    """

    class BlockedLinksRadio(RadioModel):
        """Reliable radio that permanently fails a chosen set of links."""

        def __init__(self, blocked):
            self.blocked = {tuple(link) for link in blocked}
            self.blocked |= {(receiver, sender) for sender, receiver in self.blocked}

        def filter_batch(self, links):
            once = np.ones(len(links), dtype=np.int64)
            for index, link in enumerate(links):
                if tuple(map(int, link)) in self.blocked:
                    copies = once.copy()
                    copies[index] = 0
                    return once, copies, index
            return once, once, None

    @pytest.mark.parametrize("execution", ["batched", "per-edge"])
    def test_falls_back_to_next_candidate(self, execution):
        # 3x3 grid, kill node 4 (the centre's neighbour structure is known):
        # orphan 7's first candidate adopter is 6; jam that link and the
        # handshake must retry through 8 instead of aborting the epoch.
        network = fresh_network(9, execution=execution)
        tree = network.tree
        # find an orphan with at least two attached neighbours after a crash
        victim = 4
        network.kill_node(victim)
        orphans = [n for n in tree.children.get(victim, ()) if network.is_alive(n)]
        assert orphans, "test topology must orphan at least one child"
        orphan = orphans[0]
        neighbors = sorted(
            n
            for n in network.graph.neighbors(orphan)
            if network.is_alive(n) and n != victim
        )
        assert len(neighbors) >= 2, "orphan needs a fallback candidate"
        first = neighbors[0]
        network.radio = self.BlockedLinksRadio([(orphan, first)])
        result = TreeRepair().repair(network)
        assert orphan in network.tree.parent
        assert network.tree.parent[orphan] != first
        assert orphan in result.parent_changed
        network.tree.check_invariants()

    @pytest.mark.parametrize("execution", ["batched", "per-edge"])
    def test_exhausted_candidates_abort_after_installing(self, execution):
        from repro.exceptions import DeliveryError

        network = fresh_network(9, execution=execution)
        tree = network.tree
        victim = 4
        network.kill_node(victim)
        orphans = [n for n in tree.children.get(victim, ()) if network.is_alive(n)]
        orphan = orphans[0]
        # jam every link that could ever adopt any member of the orphan unit
        unit = set(tree.subtree_nodes(orphan)) - {victim}
        blocked = [
            (member, neighbor)
            for member in unit
            for neighbor in network.graph.neighbors(member)
            if neighbor not in unit
        ]
        network.radio = self.BlockedLinksRadio(blocked)
        with pytest.raises(DeliveryError) as excinfo:
            TreeRepair().repair(network)
        result = excinfo.value.repair_result
        # the repair completed before raising: the unreachable unit is
        # detached, everything else is repaired and installed
        assert set(unit) <= set(result.detached)
        for member in unit:
            assert member not in network.tree.parent
        network.tree.check_invariants()


class TestAccountingInvariant:
    """Property: every record splits its bits exactly into the four columns.

    ``total_bits == repair_bits + query_bits + detection_bits +
    election_bits`` must hold on every epoch of every run, whatever the
    fault script throws at the engine.  Randomized scripts (storms with and
    without rejoins, background churn, root crashes, charged detection on
    or off) are generated from seeded ``random.Random`` instances, so a
    failure reproduces from its printed seed.
    """

    EPOCHS = 8
    NUM_NODES = 36

    def random_run(self, seed):
        rng = random.Random(seed)
        network = fresh_network(self.NUM_NODES)
        network.clear_items()
        engine = count_engine(network, epsilon=rng.choice([0.0, 0.1]))
        node_ids = network.node_ids()
        script = crash_storm_script(
            node_ids,
            epoch=rng.randint(1, 3),
            fraction=rng.uniform(0.05, 0.35),
            seed=seed,
            rejoin_epoch=rng.choice([None, 5]),
            rejoin_value_max=DOMAIN - 1,
        )
        if rng.random() < 0.5:
            script = script.merge(
                churn_script(
                    node_ids,
                    epochs=self.EPOCHS - 1,
                    churn_rate=rng.uniform(0.01, 0.08),
                    start_epoch=1,
                    seed=seed + 1,
                    rejoin_value_max=DOMAIN - 1,
                )
            )
        if rng.random() < 0.5:
            script = script.merge(
                root_failover_script(node_ids, crash_epoch=rng.randint(4, 6))
            )
        detector = (
            HeartbeatDetector(period=rng.randint(1, 3))
            if rng.random() < 0.7
            else None
        )
        faults = FaultEngine(
            network, script=script, detector=detector, election=RootElection()
        )
        stream = DriftStream(self.NUM_NODES, max_value=DOMAIN, seed=seed)
        return run_faulty_stream(engine, stream, faults, epochs=self.EPOCHS)

    def test_bit_decomposition_holds_across_random_fault_scripts(self):
        elections_seen = 0
        detection_seen = 0
        for seed in range(12):
            trace = self.random_run(seed)
            for record in trace:
                assert record.total_bits == (
                    record.repair_bits
                    + record.query_bits
                    + record.detection_bits
                    + record.election_bits
                ), f"decomposition violated at seed={seed} epoch={record.epoch}"
            assert trace.total_bits == (
                trace.total_repair_bits
                + trace.total_query_bits
                + trace.total_detection_bits
                + trace.total_election_bits
            ), f"trace-level decomposition violated at seed={seed}"
            elections_seen += trace.election_count
            detection_seen += trace.total_detection_bits
        # The randomized pool genuinely exercised the interesting columns.
        assert elections_seen > 0
        assert detection_seen > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("execution", ["batched", "per-edge"])
def test_fault_storm_stack_stays_consistent_at_scale(execution, seed):
    """A 10k-node storm-under-churn run keeps every invariant on both paths.

    The invariant sweep (``check_invariants`` + graph validation per epoch)
    dominates the runtime — this is the fault-storm stress test the ``slow``
    marker exists for; tier-1 CI runs it on the 3.12 leg only.
    """
    from repro.faults import FaultEngine, TreeRepair
    from repro.workloads.faults import storm_under_churn_script

    network = SensorNetwork.from_items(
        [0] * 10_000, topology="random_geometric", seed=seed, execution=execution
    )
    script = storm_under_churn_script(
        network.node_ids(),
        epochs=8,
        storm_epoch=1,
        storm_fraction=0.15,
        rejoin_epoch=4,
        churn_rate=0.005,
        seed=seed,
    )
    faults = FaultEngine(network, script=script, repair=TreeRepair())
    for epoch in range(8):
        faults.step(epoch)
        network.tree.check_invariants()
        network.tree.validate(
            network.graph, covering=set(network.tree.parent)
        )
    # The flat view the batched sweeps consume matches a from-scratch build.
    from repro.network.flat_tree import FlatTree

    scratch = FlatTree.from_spanning_tree(network.tree)
    flat_lists, scratch_lists = network.flat_tree.to_lists(), scratch.to_lists()
    assert flat_lists["node_ids"] == scratch_lists["node_ids"]
    assert flat_lists["parent"] == scratch_lists["parent"]
    assert flat_lists["child_index"] == scratch_lists["child_index"]
