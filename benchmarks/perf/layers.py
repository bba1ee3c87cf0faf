"""Each layer on its own: micro-benches and the execution-path table.

Inputs are cut from the ``quiet_drift`` field (same topology, tree and
stream for a given seed), every bench runs ``ROUNDS`` timed rounds after
one untimed warm-up, and each metric is reported as median + IQR.  These
numbers locate a change; whether it *matters* is decided end to end.

The path table times the stream phase alone — ``advance_epoch`` on the
``quiet_drift`` stream, no faults — under every execution path the repo
carries, feeding all of them the same updates, and checks that the four
paths sharing the cost model end with the same ledger.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import Callable

from repro.faults import HeartbeatDetector, RootElection, TreeRepair
from repro.faults.detection import heartbeat_sweep_vectorized
from repro.network import (
    ArrayLedger,
    CommunicationLedger,
    FlatTree,
    LossyRadio,
    ReliableRadio,
    SensorNetwork,
    VectorField,
)
from repro.sketches import LogLogSketch, QDigest
from repro.streaming import CountQuery, engine_for
from repro.streaming.vector_kernels import SweepState, sweep_levels
from repro.telemetry import SpanTracer
from repro.telemetry.spans import phases_payload
from repro.tenancy import TenantLedgerSplit
from repro.workloads import DriftStream

from benchmarks.perf import spec, verify, workloads

ROUNDS = 7
#: Stream-phase epochs fed to every execution path: two warm-ups (full load
#: and first delta) and then the timed ones.
PATH_EPOCHS = spec.WARMUP_EPOCHS + ROUNDS


def _stat(samples: list[float], scale: float) -> dict:
    quartiles = statistics.quantiles(samples, n=4)
    return {
        "value": statistics.median(samples) * scale,
        "iqr": (quartiles[2] - quartiles[0]) * scale,
        "rounds": len(samples),
    }


def _rounds(action: Callable[[int], object], prepare: Callable[[int], object] | None = None) -> list[float]:
    """Seconds of ``action(round)`` for one warm-up round and ``ROUNDS`` timed
    ones; ``prepare(round)`` runs untimed before each."""
    samples = []
    for index in range(ROUNDS + 1):
        if prepare is not None:
            prepare(index)
        start = perf_counter()
        action(index)
        samples.append(perf_counter() - start)
    return samples[1:]


# --------------------------------------------------------------------------- #
# Micro-benches
# --------------------------------------------------------------------------- #
def _radio_and_ledger(network: SensorNetwork, seed: int, out: dict) -> None:
    import numpy as np

    links = network.flat_tree.up_links
    per_link = 1e9 / len(links)
    sizes = [2] * len(links)
    reliable = ReliableRadio()
    lossy = LossyRadio(spec.LOSS_RATE, seed=seed)
    out["micro.radio.filter_batch_reliable_ns_per_link"] = _stat(
        _rounds(lambda _: reliable.filter_batch(links)), per_link
    )
    out["micro.radio.filter_batch_lossy_ns_per_link"] = _stat(
        _rounds(lambda _: lossy.filter_batch(links)), per_link
    )
    ledger = CommunicationLedger()
    out["micro.ledger.charge_batch_ns_per_link"] = _stat(
        _rounds(lambda _: ledger.charge_batch(links, sizes, None, protocol="bench")),
        per_link,
    )
    senders = np.fromiter((link[0] for link in links), dtype=np.int64)
    receivers = np.fromiter((link[1] for link in links), dtype=np.int64)
    size_array = np.full(len(links), 2, dtype=np.int64)
    array_ledger = ArrayLedger(network.num_nodes)
    out["micro.ledger.charge_array_ns_per_link"] = _stat(
        _rounds(
            lambda _: array_ledger.charge_array(
                senders, receivers, size_array, protocol="bench"
            )
        ),
        per_link,
    )


def _flat_tree(network: SensorNetwork, seed: int, out: dict) -> None:
    tree = network.tree
    out["micro.flat_tree.build_ms"] = _stat(
        _rounds(lambda _: FlatTree.from_spanning_tree(tree)), 1e3
    )
    # Re-parent 200 leaves to another node one level up: depths stay put,
    # so the patch is exactly what an adoption wave hands to rewire().
    flat = network.flat_tree
    rng = random.Random(seed)
    by_depth: dict[int, list[int]] = {}
    for node, depth in zip(flat.node_ids, flat.depth.tolist()):
        by_depth.setdefault(depth, []).append(node)
    leaves = [
        node
        for node in flat.node_ids
        if not tree.children[node] and len(by_depth[flat.depth[flat.index[node]] - 1]) > 1
    ]
    moved = rng.sample(leaves, min(200, len(leaves)))
    reparented, depths = {}, {}
    for node in moved:
        depth = int(flat.depth[flat.index[node]])
        choices = [p for p in by_depth[depth - 1] if p != tree.parent[node]]
        reparented[node] = rng.choice(choices)
        depths[node] = depth
    out["micro.flat_tree.rewire_ms"] = _stat(
        _rounds(lambda _: flat.rewire(reparented=reparented, depths=depths)), 1e3
    )


def _sweep_kernel(network: SensorNetwork, seed: int, out: dict) -> None:
    """``sweep_levels`` alone: 2% of the rows change, charging is a no-op."""
    import numpy as np

    flat = network.flat_tree
    num = flat.num_nodes
    state = SweepState.zeros(num)
    state.local[:] = 1
    state.has_local[:] = True
    spans = [flat.level_spans[depth] for depth in range(flat.height, -1, -1)]
    slack = spec.EPSILON
    rng = np.random.default_rng(seed)
    active = np.ones(num, dtype=bool)

    def sweep(_index: int) -> None:
        sweep_levels(
            parent=flat.parent,
            level_spans=spans,
            state=state,
            active=active,
            slack=slack,
            charge=lambda tx_pos, tx_par, sizes: None,
        )

    sweep(0)  # full load, so the timed rounds are steady-state deltas

    def dirty(_index: int) -> None:
        active[:] = False
        changed = rng.choice(num, max(1, num // 50), replace=False)
        state.local[changed] = rng.integers(0, 4, changed.size)
        active[changed] = True

    out["micro.sweep_levels_ms"] = _stat(_rounds(sweep, dirty), 1e3)


def _heartbeat(network: SensorNetwork, out: dict) -> None:
    import numpy as np

    detector = HeartbeatDetector(period=1)
    out["micro.heartbeat.charge_sweep_ms"] = _stat(
        _rounds(lambda _: detector.charge_sweep(network, set())), 1e3
    )
    flat = network.flat_tree
    alive = np.ones(flat.num_nodes, dtype=bool)
    ledger = ArrayLedger(flat.num_nodes)
    out["micro.heartbeat.vectorized_ms"] = _stat(
        _rounds(lambda _: heartbeat_sweep_vectorized(flat, alive, ledger)), 1e3
    )


def _repair_and_election(network: SensorNetwork, seed: int, out: dict) -> None:
    """Repair passes on real damage; the field is healed between rounds."""
    rng = random.Random(seed)
    repair = TreeRepair()
    candidates = [node for node in network.node_ids() if node != network.root_id]
    rng.shuffle(candidates)

    def bench(crashed: int) -> list[float]:
        victims: list[int] = []

        def crash(index: int) -> None:
            nonlocal victims
            for node in victims:  # heal the previous round's damage, untimed
                network.revive_node(node)
            if victims:
                repair.repair(network)
            victims = candidates[index * crashed : (index + 1) * crashed]
            for node in victims:
                network.kill_node(node)

        samples = _rounds(lambda _: repair.repair(network), crash)
        for node in victims:
            network.revive_node(node)
        repair.repair(network)
        return samples

    out["micro.repair.churn_pass_ms"] = _stat(bench(min(40, len(candidates) // 16)), 1e3)
    out["micro.repair.storm_pass_ms"] = _stat(bench(len(candidates) // 10), 1e3)

    # Election: each round the current root dies and the repair pass that
    # follows elects and re-roots; only elect() itself is timed.
    election = RootElection()
    elect = election.elect
    samples: list[float] = []

    def timed_elect(target):
        start = perf_counter()
        try:
            return elect(target)
        finally:
            samples.append(perf_counter() - start)

    election.elect = timed_elect
    for _ in range(ROUNDS + 1):
        network.kill_node(network.root_id, allow_root=True)
        repair.repair(network, election=election)
    out["micro.election.elect_ms"] = _stat(samples[1:], 1e3)


def _small_layers(network: SensorNetwork, seed: int, out: dict) -> None:
    legs = {f"leg{index}": 10_007 * (index + 1) for index in range(4)}
    subscriptions = {
        leg: [(f"tenant{t:02d}", leg) for t in range(spec.TENANTS // 4)]
        for leg in legs
    }
    split = TenantLedgerSplit()
    calls = 200
    out["micro.tenancy.split_epoch_us"] = _stat(
        _rounds(
            lambda _: [split.split_epoch(legs, subscriptions) for _ in range(calls)]
        ),
        1e6 / calls,
    )

    tracer = SpanTracer(ledger=network.ledger)
    spans = 1000

    def open_close(_index: int) -> None:
        for _ in range(spans):
            with tracer.span("bench"):
                pass

    out["micro.telemetry.span_us"] = _stat(_rounds(open_close), 1e6 / spans)
    out["micro.telemetry.phases_payload_ms"] = _stat(
        _rounds(lambda _: phases_payload(tracer)), 1e3
    )

    rng = random.Random(seed)
    universe = spec.VALUE_MAX + 1

    def digest() -> QDigest:
        return QDigest.from_values(
            [rng.randrange(universe) for _ in range(64)],
            universe_size=universe,
            compression=256,
        )

    def sketch() -> LogLogSketch:
        made = LogLogSketch(num_registers=64)
        for _ in range(64):
            made.add_item(rng.randrange(universe))
        return made

    merges = 200
    for name, left, right in (
        ("micro.sketch.qdigest_merge_us", digest(), digest()),
        ("micro.sketch.loglog_merge_us", sketch(), sketch()),
    ):
        out[name] = _stat(
            _rounds(lambda _, a=left, b=right: [a.merge(b) for _ in range(merges)]),
            1e6 / merges,
        )


# --------------------------------------------------------------------------- #
# Execution paths
# --------------------------------------------------------------------------- #
def _path_updates(n: int, seed: int) -> list[dict]:
    stream = DriftStream(
        n, max_value=spec.VALUE_MAX, seed=seed, drift_fraction=spec.DRIFT_FRACTION
    )
    return [stream.initial()] + [stream.step(epoch) for epoch in range(1, PATH_EPOCHS)]


def run_path(graph, execution: str, updates: list[dict], **engine_kwargs) -> tuple[dict, dict]:
    """Stream-phase epoch time of one execution path, and its final ledger."""
    network = SensorNetwork.from_items(
        [0] * graph.number_of_nodes(),
        topology=graph,
        degree_bound=None,
        execution=execution,
    )
    network.clear_items()
    engine = engine_for(network, epsilon=spec.EPSILON, **engine_kwargs)
    try:
        engine.register("count", CountQuery())
        engine.register("below_mid", workloads.below_mid())
        samples = []
        for update in updates:
            start = perf_counter()
            engine.advance_epoch(update)
            samples.append(perf_counter() - start)
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    return _stat(samples[spec.WARMUP_EPOCHS :], 1e3), verify.ledger_fingerprint(
        network.ledger
    )


def _vector_field_path(network: SensorNetwork, seed: int) -> dict:
    """The standalone field's fused epoch (detect + attach + convergecast);
    2% of the positions take a new reading count each epoch."""
    import numpy as np

    field = VectorField(network.flat_tree, epsilon=spec.EPSILON)
    field.register_count_query("count")
    num = field.num_nodes
    rng = np.random.default_rng(seed)
    samples = []
    for epoch in range(PATH_EPOCHS):
        changed = (
            np.arange(num) if epoch == 0 else rng.choice(num, max(1, num // 50), replace=False)
        )
        counts = rng.integers(0, 4, changed.size)
        start = perf_counter()
        field.advance_epoch(changed_positions=changed, new_counts=counts)
        samples.append(perf_counter() - start)
    return _stat(samples[spec.WARMUP_EPOCHS :], 1e3)


def run_sharded_path(seed: int, smoke: bool) -> dict:
    """The sharded path in a child of its own, so a dead or hung fork worker
    costs a timeout and a named error instead of the whole benchmark."""
    case = workloads.build_stream("quiet_drift", seed, smoke, epochs=PATH_EPOCHS)
    updates = _path_updates(case.network.num_nodes, seed)
    stat, ledger = run_path(case.network.graph, "sharded", updates, shard_processes=2)
    return {"stat": stat, "ledger": ledger}


def run_layers(seed: int, smoke: bool) -> dict:
    case = workloads.build_stream("quiet_drift", seed, smoke, epochs=PATH_EPOCHS)
    network = case.network
    updates = _path_updates(network.num_nodes, seed)
    case.engine.advance_epoch(updates[0])

    metrics: dict[str, dict] = {}
    _radio_and_ledger(network, seed, metrics)
    _flat_tree(network, seed, metrics)
    _sweep_kernel(network, seed, metrics)
    _heartbeat(network, metrics)
    _small_layers(network, seed, metrics)

    ledgers = {}
    for execution in ("per-edge", "batched", "vectorized"):
        name = f"path.{execution.replace('-', '_')}.epoch_ms"
        metrics[name], ledgers[execution] = run_path(network.graph, execution, updates)
    metrics["path.vector_field.epoch_ms"] = _vector_field_path(network, seed)

    # Last: these crash nodes and move the root of the shared field.
    _repair_and_election(network, seed, metrics)
    return {"metrics": metrics, "ledgers": ledgers}
