"""Tests for sensor nodes and messages."""

import dataclasses
import random

import numpy as np
import pytest

from repro.core import (
    ApproximateMedianProtocol,
    DeterministicMedianProtocol,
    DeterministicOrderStatisticProtocol,
    PolyloglogMedianProtocol,
    RepetitionPolicy,
)
from repro.distinct import ApproxDistinctCountProtocol, ExactDistinctCountProtocol
from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    NodeCrash,
    NodeRejoin,
    RootCrash,
    run_faulty_stream,
)
from repro.network import simulator
from repro.network.links import LinkTable
from repro.network.message import Message
from repro.network.node import SensorNode
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links, line_links
from repro.protocols import (
    ApproxCountProtocol,
    AverageProtocol,
    CountProtocol,
    MaxProtocol,
    MinProtocol,
    SumProtocol,
)
from repro.streaming import CountQuery, engine_for
from repro.workloads import DriftStream, uniform_values


class TestSensorNode:
    """Node state through the network, its one owner; a node is a view."""

    def test_items_validated_at_construction(self):
        network = SensorNetwork.from_items([3, 0, 7], topology=line_links(3))
        assert [node.items for node in network.nodes()] == [(3,), (0,), (7,)]
        for bad in ([3, -2], [3, 1.5], [3, True], [3, 1 << 63]):
            with pytest.raises(ConfigurationError):
                SensorNetwork.from_items(bad, topology=line_links(2))

    def test_negative_item_rejected(self):
        network = SensorNetwork(line_links(2))
        with pytest.raises(ConfigurationError, match="item must be non-negative"):
            network.assign_items({1: [-2]})

    def test_negative_node_id_rejected(self):
        links = LinkTable(2, [0], [1], ids=[-1, 4])
        with pytest.raises(ConfigurationError, match="node_id must be non-negative"):
            SensorNetwork(links, root=4)

    def test_add_and_clear_items(self):
        network = SensorNetwork(line_links(2))
        network.assign_items({0: [5, 6, 7]})
        assert network.items_of(0) == [5, 6, 7]
        assert network.node(0).items == (5, 6, 7)
        network.clear_items()
        assert network.items_of(0) == [] and network.total_items() == 0

    def test_a_view_is_frozen_and_keeps_its_moment(self):
        network = SensorNetwork.from_items([9, 4], topology=line_links(2))
        node = network.node(1)
        assert node == SensorNode(node_id=1, items=(4,), is_root=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.items = (5,)
        network.assign_items({1: [5]})
        assert node.items == (4,) and network.node(1).items == (5,)
        assert network.root.is_root and network.root.node_id == 0

    def test_views_on_sparse_ids(self):
        links = LinkTable(3, [0, 1], [1, 2], ids=[3, 8, 20])
        network = SensorNetwork.from_items([1, 2, 3], topology=links, root=8)
        assert [(node.node_id, node.items) for node in network.nodes()] == [
            (3, (1,)),
            (8, (2,)),
            (20, (3,)),
        ]
        network.assign_items({20: [7, 7]})
        assert network.items_of(20) == [7, 7] and network.node(8).is_root
        assert network.attached_items() == [1, 2, 7, 7]


#: Updates with one bad entry, each refused whole.  The grid holds ones.
BAD_UPDATES = {
    "first": {1: [-1], 4: [6], 7: [8]},
    "middle": {1: [5], 4: [-1], 7: [8]},
    "last": {1: [5], 4: [6], 7: [-1]},
    "reshaping": {1: [5, 6], 4: [], 7: [1, -1]},
    "unknown id": {1: [5], 99: [1]},
    "float": {1: [5], 2: [1.5]},
    "bool": {1: [5], 2: [True]},
    "negative": {2: [4, -1]},
    "2**63": {1: [5], 3: [1 << 63]},
    "2**70": {3: [1 << 70]},
}


class TestOneWriter:
    @pytest.mark.parametrize("updates", BAD_UPDATES.values(), ids=BAD_UPDATES)
    def test_a_refused_update_writes_nothing(self, updates):
        network = SensorNetwork.from_items([1] * 9, topology="grid")
        network.assign_items({0: [2, 3]})
        before = (network.all_items(), network.total_items())
        with pytest.raises(ConfigurationError):
            network.assign_items(updates)
        assert (network.all_items(), network.total_items()) == before

    def test_largest_item_round_trips(self):
        network = SensorNetwork.from_items([1, 2], topology=line_links(2))
        network.assign_items({1: [(1 << 63) - 1, np.int64(4)]})
        assert network.items_of(1) == [(1 << 63) - 1, 4]
        assert network.max_item() == (1 << 63) - 1

    def test_writes_match_a_dict_model(self):
        rng = random.Random(7)
        network = SensorNetwork(grid_links(5))
        model = {node: [] for node in network.node_ids()}
        for step in range(400):
            if rng.random() < 0.1:
                victim = rng.randrange(1, 25)
                network.kill_node(victim)
                network.revive_node(victim)
                model[victim] = []
            else:
                picked = rng.sample(range(25), rng.randrange(1, 6))
                updates = {
                    node: [rng.randrange(50) for _ in range(rng.choice((1, 1, 0, 3)))]
                    for node in picked
                }
                network.assign_items(updates)
                model.update(updates)
            assert [network.items_of(node) for node in model] == list(model.values())
            if step % 100 == 99:  # reading the columns packs them; let writes pile up
                items = [item for items in model.values() for item in items]
                assert network.all_items() == items
                assert network.total_items() == len(items)


class TestMessage:
    def test_basic_fields(self):
        message = Message(sender=1, receiver=2, payload={"a": 1}, size_bits=16)
        assert message.size_bits == 16
        assert message.protocol == "unknown"

    def test_self_message_rejected(self):
        with pytest.raises(ConfigurationError):
            Message(sender=1, receiver=1, payload=None, size_bits=1)

    def test_negative_size_rejected(self):
        with pytest.raises(Exception):
            Message(sender=1, receiver=2, payload=None, size_bits=-1)


# --------------------------------------------------------------------------- #
# No array path builds a node view
# --------------------------------------------------------------------------- #
def _refuse_views(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an array path built a node view")

    monkeypatch.setattr(simulator, "SensorNode", refuse)


def test_the_one_shot_queries_never_build_a_node_view(monkeypatch):
    """The twelve one-shot queries of the paper's protocols and baselines
    read the item columns only."""
    n = 256
    domain = n * n
    network = SensorNetwork.from_items(
        uniform_values(n, max_value=domain, seed=1),
        topology="random_geometric",
        seed=2,
    )
    _refuse_views(monkeypatch)
    queries = [
        DeterministicMedianProtocol(domain_max=domain),
        DeterministicOrderStatisticProtocol(quantile=0.25, domain_max=domain),
        ApproximateMedianProtocol(
            epsilon=0.2,
            num_registers=64,
            repetition_policy=RepetitionPolicy.practical(cap=2),
            seed=3,
        ),
        PolyloglogMedianProtocol(
            num_registers=64, repetition_policy=RepetitionPolicy.practical(cap=1), seed=3
        ),
        ApproxCountProtocol(num_registers=64, seed=3),
        ApproxDistinctCountProtocol(num_registers=64, seed=3),
        ExactDistinctCountProtocol(domain_max=domain),
        MinProtocol(domain_max=domain),
        MaxProtocol(domain_max=domain),
        CountProtocol(),
        SumProtocol(),
        AverageProtocol(),
    ]
    for query in queries:
        query.run(network)
    assert CountProtocol().run(network).value == n


@pytest.mark.parametrize("execution", ["batched", "vectorized"])
def test_a_faulty_stream_never_builds_a_node_view(monkeypatch, execution):
    n, epochs = 100, 12
    network = SensorNetwork.from_items(
        [0] * n, topology="grid", execution=execution
    )
    network.clear_items()
    _refuse_views(monkeypatch)
    engine = engine_for(network, epsilon=0.1)
    engine.register("count", CountQuery())
    script = FaultScript(
        {2: [NodeCrash(17)], 5: [RootCrash()], 7: [NodeRejoin(17, items=(3, 4))]}
    )
    faults = FaultEngine(
        network, script=script, seed=1, detector=HeartbeatDetector(period=1)
    )
    trace = run_faulty_stream(engine, DriftStream(n, seed=1), faults, epochs=epochs)
    rows = list(trace.to_dicts())
    assert sum(row["crashes"] for row in rows) == 2
    assert sum(row["rejoins"] for row in rows) == 1
    assert network.root_id != 0
