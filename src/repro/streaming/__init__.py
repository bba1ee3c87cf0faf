"""Continuous-query streaming engine.

Every protocol elsewhere in the package answers a *one-shot* query: the root
initiates, a convergecast runs, the network is done.  Real deployments of the
paper's setting run the same aggregates — median/quantiles, counts, count
distinct, predicate counts — *continuously* over readings that evolve over
time.  This subpackage is that execution layer:

* :mod:`repro.streaming.queries` — standing-query definitions
  (:class:`CountQuery`, :class:`PredicateCountQuery`, :class:`QuantileQuery`,
  :class:`MedianQuery`, :class:`DistinctCountQuery`);
* :mod:`repro.streaming.summaries` — the mergeable, delta-encodable subtree
  summaries those queries maintain, built on the existing sketches;
* :mod:`repro.streaming.engine` — :class:`ContinuousQueryEngine`, which
  caches per-subtree summaries and per epoch retransmits only deltas from
  nodes whose summary moved beyond an ε-slack, so steady-state communication
  is proportional to change rather than network size;
* :mod:`repro.streaming.kernels` — the two ways the engine runs a query's
  epoch: the per-node ``decide`` fold (any summary) and the whole-array
  column sweep (count-valued summaries on perfect-link fields);
* :mod:`repro.streaming.recompute` — :class:`RecomputeEngine`, the naive
  every-epoch-from-scratch baseline the savings are measured against;
* :mod:`repro.streaming.trace` — per-epoch bits / messages / energy records.

Quick start::

    from repro import (
        ContinuousQueryEngine, MedianQuery, CountQuery, SensorNetwork,
        run_stream,
    )
    from repro.workloads import DriftStream

    stream = DriftStream(num_nodes=100, max_value=1 << 16, seed=0)
    network = SensorNetwork.from_items([0] * 100, topology="grid")
    engine = ContinuousQueryEngine(network, epsilon=0.1)
    engine.register("median", MedianQuery(universe_size=1 << 16))
    engine.register("count", CountQuery())
    trace = run_stream(engine, stream, epochs=50)
    print(engine.answers(), trace.total_bits)
"""

from repro.streaming.engine import ContinuousQueryEngine, engine_for, run_stream
from repro.streaming.queries import (
    CountQuery,
    DistinctCountQuery,
    MedianQuery,
    PredicateCountQuery,
    QuantileQuery,
    StandingQuery,
)
from repro.streaming.recompute import RecomputeEngine
from repro.streaming.summaries import (
    CountSummary,
    DistinctSummary,
    QuantileSummary,
    StreamSummary,
)
from repro.streaming.trace import EpochRecord, StreamingTrace

__all__ = [
    "ContinuousQueryEngine",
    "engine_for",
    "RecomputeEngine",
    "run_stream",
    "StandingQuery",
    "CountQuery",
    "PredicateCountQuery",
    "QuantileQuery",
    "MedianQuery",
    "DistinctCountQuery",
    "StreamSummary",
    "CountSummary",
    "QuantileSummary",
    "DistinctSummary",
    "EpochRecord",
    "StreamingTrace",
]
