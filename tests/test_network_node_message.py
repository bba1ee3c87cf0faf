"""Tests for sensor nodes and messages."""

import pytest

from repro.exceptions import ConfigurationError
from repro.network.message import Message
from repro.network.node import SensorNode


class TestSensorNode:
    def test_items_validated_at_construction(self):
        node = SensorNode(node_id=1, items=[3, 0, 7])
        assert node.items == [3, 0, 7]
        assert node.item_count == 3

    def test_negative_item_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorNode(node_id=1, items=[-2])

    def test_negative_node_id_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorNode(node_id=-1)

    def test_add_and_clear_items(self):
        node = SensorNode(node_id=0)
        node.add_item(5)
        node.add_items([6, 7])
        assert node.items == [5, 6, 7]
        node.clear_items()
        assert node.item_count == 0

    def test_single_item_accessor(self):
        node = SensorNode(node_id=0, items=[9])
        assert node.single_item() == 9

    def test_single_item_accessor_rejects_multiple(self):
        node = SensorNode(node_id=0, items=[1, 2])
        with pytest.raises(ConfigurationError):
            node.single_item()

    def test_single_item_accessor_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            SensorNode(node_id=0).single_item()

    def test_scratch_reset(self):
        node = SensorNode(node_id=0)
        node.scratch["x"] = 1
        node.reset_scratch()
        assert node.scratch == {}


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
