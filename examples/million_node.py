"""A million-node sensor field: storm-under-churn on the vectorized core.

Run with::

    python examples/million_node.py                     # 1,000,000 nodes
    REPRO_MILLION_NODES=100000 python examples/million_node.py

The :class:`~repro.network.VectorField` keeps the whole field as numpy
columns over a :class:`~repro.network.FlatTree` and runs each epoch as the
fused sweep chain — heartbeat **detect** over every alive edge, the attach
**repair** sweep, and the change-driven **stream** convergecast with
ε-suppression — as whole-array level passes, charging the ledger one batch
per level.  The script

1. builds a balanced field (default: one million nodes, branching 8),
2. registers a standing COUNT query and pays its announcement broadcast,
3. runs a churn regime (~1% of nodes change their reading each epoch),
   drops a crash storm on it mid-run, and keeps monitoring through the
   damage,
4. prints the per-epoch cost table and the telemetry phase dashboard —
   the same renderer ``scripts/telemetry_report.py`` applies to exported
   JSONL traces.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.analysis.report import format_table
from repro.network import VectorField
from repro.telemetry import SpanTracer

NUM_NODES = int(os.environ.get("REPRO_MILLION_NODES", 1_000_000))
EPOCHS = 8
STORM_EPOCH = 3
STORM_FRACTION = 0.002
CHURN_FRACTION = 0.01
MAX_READING = 50


def main() -> None:
    rng = np.random.default_rng(7)
    tracer = SpanTracer()

    started = time.perf_counter()
    field = VectorField.balanced(NUM_NODES, branching=8, telemetry=tracer)
    build_seconds = time.perf_counter() - started
    print(
        f"built a {NUM_NODES:,}-node field (height {field.flat.height}) "
        f"in {build_seconds:.2f}s"
    )

    field.register_count_query("count")
    field.advance_epoch(
        changed_positions=np.arange(NUM_NODES),
        new_counts=rng.integers(0, MAX_READING, NUM_NODES),
    )
    print(f"initial answer: count = {field.answers['count']:,}")

    churn = max(1, int(NUM_NODES * CHURN_FRACTION))
    storm = max(1, int(NUM_NODES * STORM_FRACTION))
    epoch_seconds = []
    for epoch in range(1, EPOCHS):
        if epoch == STORM_EPOCH:
            # A crash storm: a random slice of the field dies at once.  The
            # next detect sweep stops billing their heartbeats and the
            # attach sweep cuts their subtrees out of the answer.
            field.crash(rng.choice(np.arange(1, NUM_NODES), storm, replace=False))
        changed = rng.choice(NUM_NODES, churn, replace=False)
        tick = time.perf_counter()
        field.advance_epoch(
            changed_positions=changed,
            new_counts=rng.integers(0, MAX_READING, churn),
        )
        epoch_seconds.append(time.perf_counter() - tick)

    print()
    print(format_table(
        ["epoch", "answer", "dirty", "tx", "suppressed", "bits", "ms"],
        [
            [
                record["epoch"],
                record["answers"]["count"],
                record["dirty"],
                record["transmissions"],
                record["suppressions"],
                record["bits"],
                round(seconds * 1000, 1) if seconds is not None else "-",
            ]
            for record, seconds in zip(
                field.records, [None] + epoch_seconds
            )
        ],
        title=f"storm-under-churn, {NUM_NODES:,} nodes "
        f"(storm at epoch {STORM_EPOCH}: {storm:,} crashes)",
    ))

    steady = epoch_seconds[-1]
    print(
        f"\nsteady-state epoch (detect + repair + stream): "
        f"{steady * 1000:.1f} ms for {NUM_NODES:,} nodes"
    )

    # The telemetry phase dashboard — identical to what
    # scripts/telemetry_report.py renders from an exported JSONL trace.
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
    from telemetry_report import summarize_spans

    spans = [span.to_dict() for span in tracer.spans]
    print()
    print(format_table(
        ["phase", "count", "wall s", "bits", "bits excl", "msgs",
         "max node bits", "failed"],
        summarize_spans(spans),
        title="telemetry phases",
    ))
    print()
    print(tracer.metrics.render_markdown())


if __name__ == "__main__":
    main()
