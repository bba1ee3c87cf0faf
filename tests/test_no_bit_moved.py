"""Pinned end-to-end fingerprints: a host-time change must move no simulated bit.

The sketch-valued epoch (generic summaries through ``decide``) and the
paper's one-shot protocols are run at small fixed sizes and everything the
simulation can observe — per-epoch answers, every bit/message column of the
``FaultTrace``, the final ``ledger.snapshot()`` and the lossy radio's RNG
state — is hashed.  The constants below were computed on commit ``4c02ed7``
(PR 11, the parent of the kernel rewrite in ``repro.sketches`` /
``repro._util``) — the count-valued ``execution="vectorized"`` epoch's on
``7bac39f`` (PR 13, the parent of the array-native charged send); a kernel that folds a different count into a parent,
prices one delta entry more or less, or makes the radio draw one extra random
number changes the hash.  (The dict *order* of a digest's ``counts`` moves no
bit, so it is not visible here — ``tests/test_sketch_kernels.py`` holds the
kernels to that.)
"""

import hashlib
import json

import pytest

from repro.core import (
    ApproximateMedianProtocol,
    DeterministicMedianProtocol,
    DeterministicOrderStatisticProtocol,
    PolyloglogMedianProtocol,
    RepetitionPolicy,
)
from repro.distinct import ApproxDistinctCountProtocol, ExactDistinctCountProtocol
from repro._util.fastpath import HAVE_NUMPY
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    RootCrash,
    TreeRepair,
    run_faulty_stream,
)
from repro.network import LossyRadio, SensorNetwork
from repro.protocols import (
    ApproxCountProtocol,
    AverageProtocol,
    CountProtocol,
    MaxProtocol,
    MinProtocol,
    SumProtocol,
)
from repro.streaming import (
    CountQuery,
    DistinctCountQuery,
    PredicateCountQuery,
    QuantileQuery,
    engine_for,
)
from repro.telemetry import CostAttribution, FlightRecorder, SpanTracer
from repro.telemetry.records import json_safe
from repro.tenancy import MultiTenantEngine
from repro.workloads import DriftStream, uniform_values
from repro.workloads.faults import (
    churn_script,
    link_storm_script,
    storm_under_churn_script,
)

VALUE_MAX = 1 << 16
SEED = 3

TENANTS_SHA256 = "4972802af1dd08ea38ad66d7890cc562d0fd4ef82e59a8b66787aa790204b025"
ONESHOT_SHA256 = "6e6d83c9908038899069d7dd00f3ba2c1f8d11c5770434f7efa4e021629f7062"
COUNT_PATH_SHA256 = "f477792757b45dace524db685d870c339c3778e84d33e27223d8085b624dac1b"
LINK_STORM_SHA256 = "128319b8cc315653ca722cc8720827637c649fdede8c869c394d514078d5bfae"


def _sha256(payload) -> str:
    blob = json.dumps(json_safe(payload), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _ledger_payload(ledger) -> dict:
    snapshot = ledger.snapshot()
    return {
        "per_node_bits": sorted(snapshot.per_node_bits.items()),
        "total_bits": snapshot.total_bits,
        "max_node_bits": snapshot.max_node_bits,
        "messages": snapshot.messages,
        "rounds": snapshot.rounds,
        "per_protocol_bits": sorted(snapshot.per_protocol_bits.items()),
    }


def _tenant_queries():
    """8 tenants cycling the four leg kinds.

    With 144 readings a compression-256 digest never reaches its merge
    threshold (total / 256 < 1), so the second quantile tenant asks for
    compression 16: its leg is the one on which ``compress`` really folds
    children into parents, level after level.
    """
    quantiles = ((0.5, 256), (0.25, 16))
    for index in range(8):
        kind = index % 4
        if kind == 0:
            yield "count", CountQuery()
        elif kind == 1:
            fraction, compression = quantiles[index // 4]
            yield "quantile", QuantileQuery(
                fraction, universe_size=VALUE_MAX + 1, compression=compression
            )
        elif kind == 2:
            yield "distinct", DistinctCountQuery(num_registers=64)
        else:
            yield "below_mid", PredicateCountQuery(
                lambda item: item < VALUE_MAX // 2, description="x < mid"
            )


@pytest.mark.parametrize("execution", ["batched", "per-edge"])
def test_sketch_valued_epochs_move_no_bit(execution):
    epochs = 16
    radio = LossyRadio(0.05, seed=SEED)
    network = SensorNetwork.from_items(
        [0] * 144, topology="grid", radio=radio, execution=execution
    )
    network.clear_items()
    service = MultiTenantEngine(network, epsilon=0.1)
    for index, (name, query) in enumerate(_tenant_queries()):
        service.register(f"tenant{index}", name, query)
    assert len(service.planner.legs()) == 5
    faults = FaultEngine(
        network,
        script=churn_script(
            network.node_ids(),
            epochs=epochs - 1,
            churn_rate=0.01,
            seed=SEED,
            rejoin_value_max=VALUE_MAX,
        ),
        repair=TreeRepair(),
        seed=SEED,
        detector=HeartbeatDetector(period=1),
    )
    stream = DriftStream(144, max_value=VALUE_MAX, seed=SEED, drift_fraction=0.05)
    trace = run_faulty_stream(
        service, stream, faults, epochs=epochs, compute_truth=False
    )
    rows = list(trace.to_dicts())
    assert len(rows) == epochs
    assert sum(row["crashes"] for row in rows) > 0  # the script did something
    payload = {
        "rows": rows,
        "ledger": _ledger_payload(network.ledger),
        "radio_rng": repr(radio._rng.getstate()),
    }
    assert _sha256(payload) == TENANTS_SHA256


def _oneshot_queries(domain: int, seed: int):
    return [
        DeterministicMedianProtocol(domain_max=domain),
        DeterministicOrderStatisticProtocol(quantile=0.25, domain_max=domain),
        ApproximateMedianProtocol(
            epsilon=0.2,
            num_registers=64,
            repetition_policy=RepetitionPolicy.practical(cap=2),
            seed=seed,
        ),
        PolyloglogMedianProtocol(
            num_registers=64,
            repetition_policy=RepetitionPolicy.practical(cap=1),
            seed=seed,
        ),
        ApproxCountProtocol(num_registers=64, seed=seed),
        ApproxDistinctCountProtocol(num_registers=64, seed=seed),
        ExactDistinctCountProtocol(domain_max=domain),
        MinProtocol(domain_max=domain),
        MaxProtocol(domain_max=domain),
        CountProtocol(),
        SumProtocol(),
        AverageProtocol(),
    ]


def test_oneshot_paper_queries_move_no_bit():
    n = 256
    domain = n * n
    items = uniform_values(n, max_value=domain, seed=SEED)
    network = SensorNetwork.from_items(
        items, topology="random_geometric", seed=SEED, execution="batched"
    )
    rows = []
    for protocol in _oneshot_queries(domain, SEED):
        network.reset_ledger()
        outcome = protocol.run(network)
        rows.append(
            {
                "protocol": type(protocol).__name__,
                "answer": outcome.value,
                "total_bits": outcome.total_bits,
                "messages": outcome.messages,
                "max_node_bits": outcome.max_node_bits,
                "rounds": outcome.rounds,
                "ledger": _ledger_payload(network.ledger),
            }
        )
    assert len(rows) == 12
    assert _sha256(rows) == ONESHOT_SHA256


def _count_path_run(script_for, observed: bool):
    """24 epochs of the count-valued ``execution="vectorized"`` engine on a
    400-node random-geometric field under ``script_for(network, epochs)``,
    heartbeat period 1; returns the trace rows and the hashed payload."""
    n, epochs = 400, 24
    network = SensorNetwork.from_items(
        [0] * n,
        topology="random_geometric",
        seed=SEED,
        degree_bound=None,
        execution="vectorized",
    )
    network.clear_items()
    engine = engine_for(network, epsilon=0.1)
    engine.register("count", CountQuery())
    engine.register(
        "below_mid",
        PredicateCountQuery(lambda item: item < VALUE_MAX // 2, description="x < mid"),
    )
    faults = FaultEngine(
        network,
        script=script_for(network, epochs),
        repair=TreeRepair(),
        seed=SEED,
        detector=HeartbeatDetector(period=1),
    )
    stream = DriftStream(n, max_value=VALUE_MAX, seed=SEED, drift_fraction=0.05)
    telemetry = (
        SpanTracer(flight=FlightRecorder(), attribution=CostAttribution())
        if observed
        else None
    )
    trace = run_faulty_stream(
        engine, stream, faults, epochs=epochs, compute_truth=False, telemetry=telemetry
    )
    rows = list(trace.to_dicts())
    assert len(rows) == epochs
    return rows, _sha256({"rows": rows, "ledger": _ledger_payload(network.ledger)})


needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vectorized paths require the 'fast' extra (numpy)"
)


@needs_numpy
@pytest.mark.parametrize("observed", [False, True])
def test_count_path_epochs_move_no_bit(observed):
    """The count-valued epoch of ``execution="vectorized"`` under a storm,
    background churn and a root crash, bare and with the full watcher on.

    ``COUNT_PATH_SHA256`` was computed on commit ``7bac39f`` (PR 13, the
    parent of the array-native charged send), where this network's ledger
    was the dict one and every level and heartbeat sweep went through the
    tuple-list ``send_batch``; installing the tracer moves no bit, so both
    runs pin the same constant.
    """

    def script_for(network, epochs):
        return storm_under_churn_script(
            network.node_ids(),
            epochs,
            storm_epoch=epochs // 4,
            storm_fraction=0.1,
            rejoin_epoch=epochs // 2,
            churn_rate=0.01,
            seed=SEED,
            rejoin_value_max=VALUE_MAX,
        ).merge(FaultScript({3 * epochs // 4: [RootCrash()]}))

    rows, digest = _count_path_run(script_for, observed)
    assert sum(row["crashes"] for row in rows) >= 400 // 10  # the storm landed
    assert [row["new_root"] for row in rows].count(None) == len(rows) - 1
    assert digest == COUNT_PATH_SHA256


@needs_numpy
@pytest.mark.parametrize("observed", [False, True])
def test_cut_tree_edges_and_reelection_move_no_bit(observed):
    """What the storm pin above never sees: tree edges cut under live nodes
    and a second fail-over.  30% of the links drop at epoch 6, the root
    crashes at epoch 8 (election over a field whose old tree is in pieces),
    the links come back at 12 and the winner itself crashes at 18.

    ``LINK_STORM_SHA256`` was computed on commit ``bb4d945`` (PR 16, the
    parent of the mask-built attach sweep and the array election flood).
    """

    def script_for(network, epochs):
        return link_storm_script(
            network.graph,
            epoch=epochs // 4,
            fraction=0.3,
            seed=SEED,
            restore_epoch=epochs // 2,
        ).merge(
            FaultScript({epochs // 3: [RootCrash()], 3 * epochs // 4: [RootCrash()]})
        )

    rows, digest = _count_path_run(script_for, observed)
    assert rows[6]["link_drops"] > 0 and rows[6]["reparented"] > 0  # tree edges cut
    assert [row["new_root"] for row in rows if row["new_root"] is not None] == [399, 398]
    assert digest == LINK_STORM_SHA256
