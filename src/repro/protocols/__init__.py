"""Distributed protocols executed over the sensor network.

The paper's algorithms (Section 3 and 4) are written for a root node that can
only *invoke protocols* — MIN, MAX, COUNT, COUNTP and APX_COUNT — and read
their results.  This package implements those primitives over the spanning
tree of a :class:`~repro.network.SensorNetwork`, charging every transmitted
bit to the network's ledger:

* :mod:`repro.protocols.broadcast` / :mod:`repro.protocols.convergecast` —
  the two tree traversals everything else is built from.
* :mod:`repro.protocols.aggregates` — TAG-style MIN / MAX / COUNT / SUM /
  AVERAGE (the paper's Fact 2.1).
* :mod:`repro.protocols.countp` — counting under a locally-computable
  predicate (Section 3.1).
* :mod:`repro.protocols.apx_count` — the α-counting protocol of Fact 2.2,
  realised as a LogLog sketch merged up the tree.
* :mod:`repro.protocols.gossip` — push-sum gossip aggregation, the non-tree
  substrate used by the gossip baseline (Kempe et al., cited as [6]).
* :mod:`repro.protocols.epoch_convergecast` — the change-driven traversal the
  continuous-query engine (:mod:`repro.streaming`) runs once per epoch: only
  dirty subtrees participate, executed as synchronous rounds.

The tree traversals (broadcast, convergecast, epoch_convergecast) each have
two ledger-equivalent execution paths selected by ``network.execution``: a
*batched* default that plans whole levels and charges them through
``SensorNetwork.send_batch``, and a *per-edge* reference path that sends one
edge at a time.
"""

from repro.protocols.aggregates import (
    AverageProtocol,
    CountProtocol,
    MaxProtocol,
    MinProtocol,
    SumProtocol,
)
from repro.protocols.apx_count import ApproxCountProtocol, ApproxCountResult
from repro.protocols.base import ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.protocols.countp import CountPredicateProtocol
from repro.protocols.epoch_convergecast import EpochStats, epoch_convergecast
from repro.protocols.gossip import PushSumGossip
from repro.protocols.predicates import (
    AllItemsPredicate,
    LessThanPredicate,
    PowerThresholdPredicate,
    Predicate,
)

__all__ = [
    "AverageProtocol",
    "CountProtocol",
    "MaxProtocol",
    "MinProtocol",
    "SumProtocol",
    "ApproxCountProtocol",
    "ApproxCountResult",
    "ProtocolResult",
    "broadcast",
    "convergecast",
    "CountPredicateProtocol",
    "EpochStats",
    "epoch_convergecast",
    "PushSumGossip",
    "AllItemsPredicate",
    "LessThanPredicate",
    "PowerThresholdPredicate",
    "Predicate",
]
