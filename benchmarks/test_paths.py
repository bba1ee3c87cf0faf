"""The execution-path races: per-edge vs batched vs vectorized vs sharded.

These are not bit claims — every path charges the same ledger, which each
race re-checks at its size — but races between interchangeable
implementations, kept until the path collapse (ROADMAP) deletes their
subjects.  Ledger / tree identity is asserted always; the wall-clock floors
only at full size (timing on shared smoke runners is noise).  Times are
single ``time.perf_counter`` samples printed with ``-s``; repeatable
wall-clock measurement is ``benchmarks/perf``'s job.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import numpy as np

from repro.faults import FaultEngine, TreeRepair
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import CountQuery
from repro.sweeps import SweepRunner, get_sweep
from repro.workloads.faults import storm_under_churn_script

SPEEDUP_TARGET = 5.0


# --------------------------------------------------------------------------- #
# E11 — the batched core vs the per-edge reference on one round trip
# --------------------------------------------------------------------------- #
def test_batched_backend_scales(smoke):
    """``e11_scaling``: ledgers identical wherever both paths run; at full size
    the batched path is >= 5x faster at n = 10,000 and completes 100k nodes."""
    spec = get_sweep("e11_scaling", smoke=smoke)
    # Inline (no fork pool): sibling cells must not compete for the cores
    # while one of them is being timed.
    results = [
        outcome.result for outcome in SweepRunner(spec, processes=0).run(force=True).outcomes
    ]
    for result in results:
        print(result["measures"]["num_nodes"], result["timing"])

    compared = [
        result["measures"]["ledgers_identical"]
        for result in results
        if result["measures"]["ledgers_identical"] is not None
    ]
    assert compared, "no size was small enough to run the per-edge reference"
    assert all(compared)
    assert len(results) == len(spec.axes["n"])

    if not smoke:
        ten_k = [
            result["timing"]["speedup"]
            for result in results
            if result["measures"]["num_nodes"] >= 10_000
            and result["timing"]["speedup"] is not None
        ]
        assert ten_k, "sweep did not include a timed size >= 10,000"
        assert max(ten_k) >= SPEEDUP_TARGET
        assert max(result["measures"]["num_nodes"] for result in results) >= 99_000


# --------------------------------------------------------------------------- #
# Vectorized core: the million-node epoch
# --------------------------------------------------------------------------- #
EPOCH_BUDGET_SECONDS = 1.0
STEADY_EPOCHS = 5
CHURN_FRACTION = 0.01


def test_vectorized_million_node_epoch(smoke):
    """A 1M-node fused epoch (detect + repair + convergecast) under 1 s.

    The steady-state epoch is the quantity the paper's continuous-monitoring
    regime pays every round: a full heartbeat sweep over all alive edges, the
    attach-mask repair sweep, and the change-driven convergecast over ~1% of
    the field, all as whole-array level passes on the
    :class:`~repro.network.VectorField`.
    """
    from repro.network import VectorField

    num_nodes = 1024 if smoke else 1_000_000
    field = VectorField.balanced(num_nodes, branching=8)
    field.register_count_query("count")
    rng = np.random.default_rng(0)
    field.advance_epoch(
        changed_positions=np.arange(num_nodes),
        new_counts=rng.integers(0, 50, num_nodes),
    )
    churn = max(1, int(num_nodes * CHURN_FRACTION))

    started = time.perf_counter()
    for _ in range(STEADY_EPOCHS):
        field.advance_epoch(
            changed_positions=rng.choice(num_nodes, churn, replace=False),
            new_counts=rng.integers(0, 50, churn),
        )
    per_epoch = (time.perf_counter() - started) / STEADY_EPOCHS
    print(f"vectorized epoch at n={num_nodes}: {per_epoch * 1000:.1f} ms")

    if not smoke:
        assert per_epoch < EPOCH_BUDGET_SECONDS, (
            f"1M-node epoch took {per_epoch:.3f}s (budget {EPOCH_BUDGET_SECONDS}s)"
        )


# --------------------------------------------------------------------------- #
# Sharded backend: bit-identical to the single-process batched engine
# --------------------------------------------------------------------------- #
SHARDED_EPOCHS = 4


def test_sharded_ledger_identity(smoke):
    """Per-epoch ledger merges leave the sharded backend bit-identical.

    Twin networks at n = 10,000 run the same update stream, one under the
    single-process batched engine and one under ``execution="sharded"`` with
    fork workers; the merged worker ledgers must reproduce the batched
    ledger exactly — per-node bits, totals, messages, rounds and
    per-protocol breakdowns.
    """
    from repro.streaming.vector_engine import VectorStreamEngine

    num_nodes = 1024 if smoke else 10_000
    batched_net, sharded_net = (
        SensorNetwork.from_items(
            [0] * num_nodes, topology="random_geometric", seed=0, execution=execution
        )
        for execution in ("batched", "sharded")
    )
    engines = [
        ContinuousQueryEngine(batched_net, epsilon=0.1),
        VectorStreamEngine(sharded_net, epsilon=0.1, shard_processes=2),
    ]
    rng = random.Random(17)
    epochs = [
        {
            rng.randrange(num_nodes): [rng.randrange(100) for _ in range(rng.randrange(4))]
            for _ in range(num_nodes // 20)
        }
        for _ in range(SHARDED_EPOCHS)
    ]
    for engine in engines:
        engine.register("count", CountQuery())
        for updates in epochs:
            engine.advance_epoch(dict(updates))
        if hasattr(engine, "close"):
            engine.close()

    left = batched_net.ledger.snapshot()
    right = sharded_net.ledger.snapshot()
    assert (
        left.per_node_bits == right.per_node_bits
        and left.total_bits == right.total_bits
        and left.max_node_bits == right.max_node_bits
        and left.messages == right.messages
        and left.rounds == right.rounds
        and left.per_protocol_bits == right.per_protocol_bits
    ), "sharded ledger diverged from the batched reference"


# --------------------------------------------------------------------------- #
# Wall-clock: the batched repair core vs the per-edge reference
# --------------------------------------------------------------------------- #
WALL_CLOCK_EPOCHS = 16
WALL_CLOCK_STORM_EPOCH = 4
WALL_CLOCK_REJOIN_EPOCH = 8
WALL_CLOCK_CHURN_RATE = 0.002
WALL_CLOCK_REPEATS = 3
CRASH_FRACTION = 0.10


class _TimedRepair:
    """Wrap a repair policy; accumulate the wall-clock of every repair pass.

    The measured unit is the *repair pass as the batched execution core
    consumes it*: patching the spanning tree plus delivering a current
    :class:`~repro.network.FlatTree` view for the next batched traversal.
    The per-edge reference rebuilds that view from scratch; the batched
    path rewires it in place — exactly the difference the flat-array port
    exists to exploit.
    """

    def __init__(self, inner, network):
        self.inner = inner
        self.network = network
        self.seconds = 0.0

    def repair(self, network):
        start = time.perf_counter()
        result = self.inner.repair(network)
        self.network.flat_tree
        self.seconds += time.perf_counter() - start
        return result


def _run_crash_storm(num_nodes: int, execution: str):
    # A fresh link table per run: a network adopts the table it is given.
    network = SensorNetwork.from_items(
        [0] * num_nodes,
        topology="random_geometric",
        seed=0,
        degree_bound=None,
        execution=execution,
    )
    script = storm_under_churn_script(
        network.node_ids(),
        epochs=WALL_CLOCK_EPOCHS,
        storm_epoch=WALL_CLOCK_STORM_EPOCH,
        storm_fraction=CRASH_FRACTION,
        rejoin_epoch=WALL_CLOCK_REJOIN_EPOCH,
        churn_rate=WALL_CLOCK_CHURN_RATE,
        seed=0,
    )
    timed = _TimedRepair(TreeRepair(), network)
    faults = FaultEngine(network, script=script, repair=timed)
    network.flat_tree  # a running deployment starts with a current view
    gc.collect()
    gc.disable()
    try:
        for epoch in range(WALL_CLOCK_EPOCHS):
            faults.step(epoch)
    finally:
        gc.enable()
    return timed.seconds, network


def test_batched_repair_outpaces_per_edge(smoke):
    """The array repair pass (``execution="batched"``) is >= 5x faster than
    the reference (``execution="per-edge"``) at n = 10,000.

    A 10% crash storm (recovering four epochs later) rides on sustained
    background churn, where the per-edge pass pays O(alive edges) every
    fault epoch no matter how small the damage.  Repair wall-clock (tree
    patch + flat-view delivery) is accumulated per pass over interleaved
    repeats; the two paths must also agree exactly on the repaired tree and
    the ledger.
    """
    num_nodes = 256 if smoke else 10_000
    per_edge, batched = [], []
    for _ in range(WALL_CLOCK_REPEATS):
        seconds, reference_network = _run_crash_storm(num_nodes, "per-edge")
        per_edge.append(seconds)
        seconds, batched_network = _run_crash_storm(num_nodes, "batched")
        batched.append(seconds)
    speedup = statistics.median(per_edge) / statistics.median(batched)
    print(
        f"repair pass at n={num_nodes}: per-edge {statistics.median(per_edge) * 1000:.0f} ms, "
        f"batched {statistics.median(batched) * 1000:.0f} ms, {speedup:.1f}x"
    )

    assert (
        reference_network.flat_tree.to_lists() == batched_network.flat_tree.to_lists()
    )
    left = reference_network.ledger.snapshot()
    right = batched_network.ledger.snapshot()
    assert left.per_node_bits == right.per_node_bits
    assert left.per_protocol_bits == right.per_protocol_bits
    assert left.rounds == right.rounds

    if not smoke:
        assert speedup >= SPEEDUP_TARGET
