"""Sensor-network simulation substrate.

This package provides everything the paper's protocols presuppose about the
underlying system (Section 2.1 of the paper): a set of nodes, one of which is
the *root*, each holding a multiset of integer items; a communication
mechanism over which the root can initiate protocols; and an accounting layer
that measures the *individual* communication complexity — the maximum number
of bits transmitted plus received by any single node.
"""

from repro.network.accounting import (
    ArrayLedger,  # the commented alias in accounting: benchmarks still import it
    CommunicationLedger,
    LedgerMark,
    LedgerSnapshot,
    NodeTraffic,
)
from repro.network.energy import EnergyModel, EnergyReport
from repro.network.flat_tree import FlatTree
from repro.network.links import LinkTable
from repro.network.message import Message
from repro.network.node import SensorNode
from repro.network.radio import (
    DuplicatingRadio,
    LossyRadio,
    RadioModel,
    ReliableRadio,
)
from repro.network.simulator import EXECUTION_MODES, SensorNetwork
from repro.network.vector_field import VectorField

__all__ = [
    "ArrayLedger",
    "CommunicationLedger",
    "LedgerMark",
    "LedgerSnapshot",
    "NodeTraffic",
    "EnergyModel",
    "EnergyReport",
    "FlatTree",
    "LinkTable",
    "Message",
    "SensorNode",
    "RadioModel",
    "ReliableRadio",
    "LossyRadio",
    "DuplicatingRadio",
    "EXECUTION_MODES",
    "SensorNetwork",
    "VectorField",
]
