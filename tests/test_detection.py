"""Charged failure detection: heartbeats, latency, zombies and accounting."""

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    NodeCrash,
    NodeRejoin,
    TreeRepair,
    run_faulty_stream,
)
from repro.faults.detection import detector_from_config
from repro.network.radio import LossyRadio
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import CountQuery
from repro.workloads.faults import crash_storm_script
from repro.workloads.streams import DriftStream


def fresh_network(num_nodes=36, **kwargs):
    return SensorNetwork.from_items([0] * num_nodes, topology="grid", **kwargs)


class TestDetectorConfig:
    def test_period_must_be_positive(self):
        with pytest.raises(Exception):
            HeartbeatDetector(period=0)

    def test_sweep_schedule(self):
        detector = HeartbeatDetector(period=3)
        assert [detector.sweep_due(epoch) for epoch in range(7)] == [
            True, False, False, True, False, False, True,
        ]

    def test_latency_formulas(self):
        assert HeartbeatDetector(period=1).worst_case_latency() == 0
        assert HeartbeatDetector(period=4).worst_case_latency() == 3

    def test_from_config(self):
        assert detector_from_config(None) is None
        assert detector_from_config(3).period == 3
        detector = HeartbeatDetector(period=2)
        assert detector_from_config(detector) is detector
        with pytest.raises(ConfigurationError):
            detector_from_config("often")
        with pytest.raises(ConfigurationError):
            detector_from_config(True)


class TestChargedSweeps:
    def test_sweep_charges_one_heartbeat_per_tree_edge(self):
        network = fresh_network(16)
        detector = HeartbeatDetector(period=1)
        bits, messages = detector.charge_sweep(network, silent=set())
        assert bits == detector.heartbeat_bits * (network.num_nodes - 1)
        assert messages == network.num_nodes - 1
        per_protocol = network.ledger.per_protocol_bits()
        assert per_protocol["faults:heartbeat"] == bits

    def test_silent_nodes_send_nothing_but_their_children_still_pay(self):
        network = fresh_network(16)
        detector = HeartbeatDetector(period=1)
        silent = {5}
        bits, _ = detector.charge_sweep(network, silent=silent)
        assert bits == detector.heartbeat_bits * (network.num_nodes - 2)
        # node 5's own children transmitted toward the zombie
        flat = network.flat_tree
        children = flat.children_of(flat.index[5])
        child = flat.node_ids[children[0]] if children else None
        if child is not None:
            assert network.ledger.traffic(child).bits_sent > 0

    def test_quiet_epochs_still_pay_the_standing_cost(self):
        network = fresh_network(16)
        faults = FaultEngine(network, detector=HeartbeatDetector(period=2))
        costs = [faults.step(epoch).detection_bits for epoch in range(4)]
        assert costs[0] > 0 and costs[2] > 0  # sweep epochs
        assert costs[1] == 0 and costs[3] == 0  # off-cycle epochs
        assert all(
            not faults.step(epoch).had_faults for epoch in range(4, 6)
        )


class TestDetectionSemantics:
    def test_crash_detected_at_next_sweep_with_real_latency(self):
        network = fresh_network(25)
        script = FaultScript()
        script.add(3, NodeCrash(7))
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=4)
        )
        for epoch in range(4):
            report = faults.step(epoch)
        # physically dead at 3 — readings gone, still in the tree, undetected
        assert report.crashed == (7,)
        assert report.detected == ()
        assert not report.repair.changed_anything
        assert network.is_alive(7)
        assert 7 in network.flat_tree.index
        assert 7 in faults.undetected_dead
        assert network.items_of(7) == []
        # the epoch-4 sweep misses the heartbeat: detection, kill, repair
        report = faults.step(4)
        assert report.detected == (7,)
        assert report.detection_latencies == (1,)
        assert not network.is_alive(7)
        assert 7 not in network.flat_tree.index
        assert faults.undetected_dead == frozenset()

    def test_period_one_matches_oracle_except_heartbeat_bits(self):
        traces = {}
        for detector in (None, HeartbeatDetector(period=1)):
            network = fresh_network(36)
            network.clear_items()
            engine = ContinuousQueryEngine(network, epsilon=0.05)
            engine.register("count", CountQuery())
            script = crash_storm_script(
                network.node_ids(), epoch=2, fraction=0.2, seed=0, rejoin_epoch=5
            )
            faults = FaultEngine(
                network, script=script, repair=TreeRepair(), detector=detector
            )
            traces[detector is None] = run_faulty_stream(
                engine, DriftStream(36, seed=0), faults, epochs=8
            )
        oracle, paid = traces[True], traces[False]
        assert paid.total_repair_bits == oracle.total_repair_bits
        assert paid.total_query_bits == oracle.total_query_bits
        assert oracle.total_detection_bits == 0
        assert paid.total_detection_bits > 0
        assert paid.mean_detection_latency == 0.0
        assert [record.answers for record in paid] == [
            record.answers for record in oracle
        ]

    def test_flap_inside_the_window_never_touches_the_tree(self):
        network = fresh_network(25)
        script = FaultScript()
        script.add(1, NodeCrash(9))
        script.add(2, NodeRejoin(9, items=(123,)))
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=8)
        )
        parent_before = network.flat_tree.parent_map()
        reports = [faults.step(epoch) for epoch in range(4)]
        assert reports[1].crashed == (9,)
        assert reports[2].rejoined == (9,)
        assert all(report.detected == () for report in reports)
        assert all(not report.repair.changed_anything for report in reports)
        assert network.flat_tree.parent_map() == parent_before
        assert network.items_of(9) == [123]
        assert network.is_alive(9)

    def test_flap_readings_reach_the_root(self):
        """A flapped node's replacement readings must re-synchronise.

        The flap leaves the tree untouched, so no repair marks the node
        dirty — the runner surfaces the rejoin items as that epoch's
        update, otherwise the pre-crash summary would be served forever.
        """
        network = fresh_network(25)
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.0)
        engine.register("count", CountQuery())
        script = FaultScript()
        script.add(2, NodeCrash(9))
        script.add(3, NodeRejoin(9, items=(77, 78)))
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=16)
        )
        trace = run_faulty_stream(
            engine, DriftStream(25, seed=0), faults, epochs=6
        )
        # after the flap the COUNT answer tracks the attached truth exactly
        # (epsilon 0): the two replacement readings are in the answer
        assert trace[3].errors["count"] == 0.0
        assert trace[5].errors["count"] == 0.0
        assert network.items_of(9) == [77, 78]

    def test_lost_heartbeats_do_not_abort_the_sweep(self):
        from repro.network.radio import LossyRadio

        network = fresh_network(
            36, radio=LossyRadio(loss_rate=0.5, max_retries=1, seed=5)
        )
        detector = HeartbeatDetector(period=1)
        bits, messages = detector.charge_sweep(network, silent=set())
        # with 50% loss and one retry, some heartbeats die permanently;
        # the sweep still completes, charging the delivered links (a
        # permanently lost transmission charges nothing, matching send())
        assert bits > 0 and messages > 0
        assert bits == detector.heartbeat_bits * messages

    def test_zombie_cannot_be_recrashed(self):
        network = fresh_network(25)
        script = FaultScript()
        script.add(1, NodeCrash(9))
        script.add(2, NodeCrash(9))
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=5)
        )
        reports = [faults.step(epoch) for epoch in range(3)]
        assert reports[1].crashed == (9,)
        assert reports[2].crashed == ()

    def test_detection_works_through_lossy_radios(self):
        network = fresh_network(25, radio=LossyRadio(loss_rate=0.3, seed=1))
        script = FaultScript()
        script.add(1, NodeCrash(13))
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=2)
        )
        for epoch in range(3):
            report = faults.step(epoch)
        assert report.detected == (13,)
        # retries inflate the heartbeat bill beyond the lossless floor
        lossless = HeartbeatDetector(period=2).heartbeat_bits * 24
        assert report.detection_bits > 0


class TestSeparateAccounting:
    def test_detection_repair_and_query_bits_are_disjoint_columns(self):
        network = fresh_network(36)
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.05)
        engine.register("count", CountQuery())
        script = crash_storm_script(
            network.node_ids(), epoch=2, fraction=0.2, seed=0, rejoin_epoch=5
        )
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=2)
        )
        trace = run_faulty_stream(
            engine, DriftStream(36, seed=0), faults, epochs=8
        )
        assert trace.total_detection_bits > 0
        for record in trace:
            assert record.total_bits == (
                record.repair_bits + record.query_bits + record.detection_bits
            )
        per_protocol = network.ledger.per_protocol_bits()
        assert per_protocol["faults:heartbeat"] == trace.total_detection_bits

    def test_stale_zombie_answers_show_the_latency_cost(self):
        """During the detection window the COUNT answer overcounts the dead."""
        network = fresh_network(49)
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.0)
        engine.register("count", CountQuery())
        script = crash_storm_script(
            network.node_ids(), epoch=3, fraction=0.2, seed=0
        )
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=4)
        )
        trace = run_faulty_stream(
            engine, DriftStream(49, seed=0), faults, epochs=6
        )
        crashed = trace[3].crashes
        assert crashed > 0
        # epoch 3: dead sensors' stale summaries still counted at the root
        assert trace[3].errors["count"] == pytest.approx(crashed)
        # epoch 4: sweep detects, repair evicts, the answer snaps back
        assert trace[4].detected == crashed
        assert trace[4].errors["count"] == 0.0

    def test_repair_during_window_probes_pending_crashes(self):
        """A repair pass reveals zombies: handshakes need acks a corpse
        cannot send, so no zombie ever takes part in a repair as a live
        transmitter."""
        from repro.faults import LinkDrop

        network = fresh_network(25)
        victim = 7
        parent_of = network.flat_tree.parent_map()
        script = FaultScript()
        script.add(1, NodeCrash(victim))
        # a tree-link drop elsewhere forces a repair at epoch 2, mid-window
        other = next(
            node
            for node, parent in parent_of.items()
            if parent is not None and node != victim and parent != victim
        )
        script.add(2, LinkDrop(other, parent_of[other]))
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=8)
        )
        faults.step(0)
        faults.step(1)
        assert victim in faults.undetected_dead
        sent_before = network.ledger.traffic(victim).bits_sent
        report = faults.step(2)
        # the repair probed the zombie: detected with real latency, dead,
        # out of the tree — and it transmitted nothing after its crash
        assert victim in report.detected
        assert report.detection_latencies[report.detected.index(victim)] == 1
        assert not network.is_alive(victim)
        assert victim not in network.flat_tree.index
        assert network.ledger.traffic(victim).bits_sent == sent_before

    def test_repair_messages_exclude_heartbeats(self):
        network = fresh_network(25)
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.05)
        engine.register("count", CountQuery())
        faults = FaultEngine(network, detector=HeartbeatDetector(period=1))
        trace = run_faulty_stream(
            engine, DriftStream(25, seed=0), faults, epochs=3
        )
        # no faults at all: every sweep charges heartbeats, repair stays zero
        for record in trace:
            assert record.repair_bits == 0
            assert record.repair_messages == 0
            assert record.detection_bits > 0

    def test_detection_latency_column_aggregates(self):
        network = fresh_network(25)
        script = FaultScript()
        script.add(1, NodeCrash(7))
        script.add(2, NodeCrash(11))
        faults = FaultEngine(
            network, script=script, detector=HeartbeatDetector(period=4)
        )
        for epoch in range(5):
            report = faults.step(epoch)
        assert report.detected == (7, 11)
        assert report.detection_latencies == (3, 2)
