"""Pinned end-to-end fingerprints: a host-time change must move no simulated bit.

The sketch-valued epoch (generic summaries through ``decide``) and the
paper's one-shot protocols are run at small fixed sizes and everything the
simulation can observe — per-epoch answers, every bit/message column of the
``FaultTrace`` and the final ``ledger.snapshot()`` — is hashed.  The constants below were computed on commit ``4c02ed7``
(PR 11, the parent of the kernel rewrite in ``repro.sketches`` /
``repro._util``) — the count-valued epoch's on ``7bac39f`` (the parent of
the array-native charged send), where it ran on the column sweep
of ``execution="vectorized"``; it now runs twice, once on the sweep and
once on the ``decide`` fold (``kernel_radio`` in ``tests/conftest.py``),
and both must hit the one constant.  A kernel that folds a different count into a parent,
prices one delta entry more or less, or makes the radio draw for one send
more or less changes the hash.  (The dict *order* of a digest's ``counts`` moves no
bit, so it is not visible here — ``tests/test_sketch_kernels.py`` holds the
kernels to that.)

``ONESHOT_SHA256`` was re-pinned once, when APX_COUNT's multiset draws
became counter-based (the ``k``-th item of node ``v`` hashes to
``hash64(k, salt=hash64(v, salt))``): only the APX_COUNT, APX_MEDIAN and
APX_MEDIAN2 rows moved, and the per-edge and batched paths produce the
new constant alike.  ``TENANTS_SHA256`` was re-pinned once, when the
radios' draws became counter-based (the ``k``-th send over a link hashes
its seed, link and ``k``) and the radio's RNG state left the payload: the
ledger columns already pin which sends happened.  The batched and per-edge
paths produce the new constant alike.
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
    ContinuousQueryEngine,
    CountQuery,
    DistinctCountQuery,
    PredicateCountQuery,
    QuantileQuery,
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

TENANTS_SHA256 = "83f553cbb75b71d70dbeb0989dd410de23cece7cf4765c5f049803d097610d02"
ONESHOT_SHA256 = "d00648b62019d67d94f4e4e4a6a5d5a90e00e62661aa533c6cea3591c61cb9b4"
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


def test_oneshot_paper_queries_meter_on_the_array_ledger(monkeypatch):
    """Guard against a silent fallback: one round of the 12 queries on a
    default batched field never charges the ledger one transmission at a
    time or from a tuple list; every sweep reaches it as arrays."""
    from repro.network import accounting

    def refuse(*args, **kwargs):
        raise AssertionError("a batched one-shot query fell back to scalar or tuple charging")

    monkeypatch.setattr(accounting.CommunicationLedger, "charge", refuse)
    monkeypatch.setattr(accounting.CommunicationLedger, "charge_batch", refuse)
    n = 256
    domain = n * n
    network = SensorNetwork.from_items(
        uniform_values(n, max_value=domain, seed=SEED),
        topology="random_geometric",
        seed=SEED,
    )
    for protocol in _oneshot_queries(domain, SEED):
        network.reset_ledger()
        assert protocol.run(network).total_bits > 0


def test_oneshot_paper_queries_leave_no_per_node_python(monkeypatch):
    """Guard against a silent fallback to per-node Python: one round of the
    12 queries on ``"batched"`` never seeds a ``random.Random`` inside
    APX_COUNT, never turns a tuple list into a link array, never reaches
    the generic fold from MIN, MAX, COUNT, COUNTP, SUM, AVG or
    COUNT_DISTINCT, and never builds a per-node map in a broadcast."""
    import importlib
    import random
    import sys

    from repro.network import simulator

    # The package re-exports the functions under the modules' names.
    convergecast = importlib.import_module("repro.protocols.convergecast")
    broadcast = importlib.import_module("repro.protocols.broadcast")

    seed_generator = random.Random.__init__

    def guarded_init(self, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "repro.protocols.apx_count":
            raise AssertionError("APX_COUNT seeded a per-node random.Random")
        seed_generator(self, *args, **kwargs)

    def refuse_pair_array(links):
        raise AssertionError("a batched one-shot sweep sent a tuple list")

    generic_fold = convergecast._convergecast_batched
    kernels = ("MIN", "MAX", "COUNT", "COUNTP", "SUM", "AVG", "COUNT_DISTINCT")

    def guarded_fold(network, local_values, combine, size_bits, protocol):
        if protocol in kernels:
            raise AssertionError(f"{protocol} reached the generic batched fold")
        return generic_fold(network, local_values, combine, size_bits, protocol)

    # In a batched broadcast, broadcast.py runs a few lines and calls no
    # builtin but len: a map over the nodes would run a line per node
    # (a comprehension) or a builtin such as dict.fromkeys.
    broadcasting = broadcast._broadcast_batched
    lines, builtins = [], []

    def count_lines(frame, event, arg):
        if event == "line":
            lines.append(frame.f_lineno)
        return count_lines

    def trace(frame, event, arg):
        return count_lines if frame.f_code.co_filename == broadcast.__file__ else None

    def watch_builtins(frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename == broadcast.__file__:
            if arg is not len:
                builtins.append(arg)

    def watched_broadcast(*args):
        lines.clear()
        tracer, profiler = sys.gettrace(), sys.getprofile()
        sys.settrace(trace)
        sys.setprofile(watch_builtins)
        try:
            broadcasting(*args)
        finally:
            sys.setprofile(profiler)
            sys.settrace(tracer)
        assert not builtins, f"a batched broadcast called {builtins}"
        assert len(lines) < 20, f"a batched broadcast ran {len(lines)} lines"

    monkeypatch.setattr(random.Random, "__init__", guarded_init)
    monkeypatch.setattr(simulator, "_pair_array", refuse_pair_array)
    monkeypatch.setattr(convergecast, "_convergecast_batched", guarded_fold)
    monkeypatch.setattr(broadcast, "_broadcast_batched", watched_broadcast)
    n = 256
    domain = n * n
    network = SensorNetwork.from_items(
        uniform_values(n, max_value=domain, seed=SEED),
        topology="random_geometric",
        seed=SEED,
        execution="batched",
    )
    for protocol in _oneshot_queries(domain, SEED):
        network.reset_ledger()
        assert protocol.run(network).total_bits > 0


def _count_path_run(script_for, observed: bool, radio):
    """24 epochs of a count-valued engine on a 400-node random-geometric
    field of perfect links (``radio``, which picks the kernel) under
    ``script_for(network, epochs)``, heartbeat period 1; returns the trace
    rows and the hashed payload."""
    n, epochs = 400, 24
    network = SensorNetwork.from_items(
        [0] * n,
        topology="random_geometric",
        seed=SEED,
        degree_bound=None,
        radio=radio,
    )
    network.clear_items()
    engine = ContinuousQueryEngine(network, epsilon=0.1)
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


@pytest.mark.parametrize("observed", [False, True])
def test_count_path_epochs_move_no_bit(observed, kernel_radio):
    """The count-valued epoch under a storm, background churn and a root
    crash, bare and with the full watcher on, on either kernel.

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

    rows, digest = _count_path_run(script_for, observed, kernel_radio)
    assert sum(row["crashes"] for row in rows) >= 400 // 10  # the storm landed
    assert [row["new_root"] for row in rows].count(None) == len(rows) - 1
    assert digest == COUNT_PATH_SHA256


@pytest.mark.parametrize("observed", [False, True])
def test_cut_tree_edges_and_reelection_move_no_bit(observed, kernel_radio):
    """What the storm pin above never sees: tree edges cut under live nodes
    and a second fail-over.  30% of the links drop at epoch 6, the root
    crashes at epoch 8 (election over a field whose old tree is in pieces),
    the links come back at 12 and the winner itself crashes at 18.

    ``LINK_STORM_SHA256`` was computed on commit ``bb4d945`` (PR 16, the
    parent of the mask-built attach sweep and the array election flood).
    """
    def script_for(network, epochs):
        return link_storm_script(
            network.links,
            epoch=epochs // 4,
            fraction=0.3,
            seed=SEED,
            restore_epoch=epochs // 2,
        ).merge(
            FaultScript({epochs // 3: [RootCrash()], 3 * epochs // 4: [RootCrash()]})
        )

    rows, digest = _count_path_run(script_for, observed, kernel_radio)
    assert rows[6]["link_drops"] > 0 and rows[6]["reparented"] > 0  # tree edges cut
    assert [row["new_root"] for row in rows if row["new_root"] is not None] == [399, 398]
    assert digest == LINK_STORM_SHA256
