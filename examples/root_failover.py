"""Root fail-over: the query node dies and the field elects a successor.

Run with::

    python examples/root_failover.py

A 400-node sensor field answers standing COUNT and MEDIAN queries over
drifting readings when, at epoch 3, the query root itself crashes — the one
failure earlier versions of the simulator refused to model.  The fault
engine responds inside the same epoch, every step billed through the radio
models:

1. **election** (`faults:election`) — candidate ids converge up the
   surviving tree fragments, the highest surviving id floods the alive
   component as the winner, and the winner reverses the parent pointers on
   the path to its fragment's old top;
2. **re-attachment** (`faults:repair`) — the other fragments of the dead
   root re-attach to the re-rooted tree as units, through the ordinary
   adoption handshakes;
3. **recovery** (`stream:*`) — the streaming engine migrates its summary
   caches along the reversed root path, so only repaired paths retransmit
   and the epoch after the handover costs zero bits again.

A second run pins the repair policy to ``strategy="rebuild"``: the same
charged election, followed by tearing the tree down, flooding a fresh BFS
construction and recomputing every summary — what the fail-over machinery
saves over the naive charged response (the E13 claim in
``benchmarks/test_claims.py`` asserts the fail-over never costs more).
"""

from __future__ import annotations

from repro import (
    ContinuousQueryEngine,
    CountQuery,
    FaultEngine,
    MedianQuery,
    SensorNetwork,
    TreeRepair,
    run_faulty_stream,
)
from repro.analysis.report import format_table
from repro.workloads import DriftStream, root_failover_script

NUM_NODES = 400
EPOCHS = 10
DOMAIN = 1 << 16
EPSILON = 0.1
CRASH_EPOCH = 3


def run(strategy: str):
    network = SensorNetwork.from_items(
        [0] * NUM_NODES, topology="random_geometric", seed=0, degree_bound=None
    )
    network.clear_items()
    engine = ContinuousQueryEngine(network, epsilon=EPSILON)
    engine.register("count", CountQuery())
    engine.register("median", MedianQuery(universe_size=DOMAIN, compression=256))
    script = root_failover_script(network.node_ids(), crash_epoch=CRASH_EPOCH)
    faults = FaultEngine(network, script=script, repair=TreeRepair(strategy=strategy))
    stream = DriftStream(NUM_NODES, max_value=DOMAIN, seed=3, drift_fraction=0.03)
    trace = run_faulty_stream(engine, stream, faults, epochs=EPOCHS)
    return network, trace


def main() -> None:
    network, trace = run("incremental")

    rows = []
    for record in trace:
        event = ""
        if record.new_root is not None:
            event = f"root died -> {record.new_root} elected"
        rows.append(
            [
                record.epoch,
                event,
                record.attached,
                record.election_bits,
                record.repair_bits,
                record.query_bits,
                record.total_bits,
                record.answers["count"],
                record.truths.get("count", ""),
            ]
        )
    print(format_table(
        [
            "epoch",
            "event",
            "attached",
            "election",
            "repair",
            "query",
            "total bits",
            "COUNT",
            "truth",
        ],
        rows,
        title=(
            "Root fail-over, fully accounted "
            "(total = election + repair + query bits per epoch)"
        ),
    ))
    print()
    print(
        f"the field now answers to node {network.root_id} "
        f"(the highest id that survived); decomposition holds on every "
        f"epoch: "
        + str(all(
            r.total_bits
            == r.repair_bits + r.query_bits + r.detection_bits + r.election_bits
            for r in trace
        ))
    )

    _, naive_trace = run("rebuild")
    print()
    print(format_table(
        ["response", "fault-epoch bits", "election", "repair", "total bits"],
        [
            [
                "fail-over (re-root + migrate)",
                trace.fault_epoch_bits,
                trace.total_election_bits,
                trace.total_repair_bits,
                trace.total_bits,
            ],
            [
                "rebuild + recompute",
                naive_trace.fault_epoch_bits,
                naive_trace.total_election_bits,
                naive_trace.total_repair_bits,
                naive_trace.total_bits,
            ],
        ],
        title="Surviving the loss of the query node, two ways",
    ))
    savings = naive_trace.fault_epoch_bits / max(1, trace.fault_epoch_bits)
    print()
    print(
        f"both responses pay the identical charged election; the fail-over "
        f"spends {savings:.1f}x fewer bits\noverall because only the "
        "reversed root path and the re-attached fragments retransmit."
    )


if __name__ == "__main__":
    main()
