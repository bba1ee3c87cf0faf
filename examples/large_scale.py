"""Large-scale aggregation: a 50,000-node sensor field on a laptop.

Run with::

    python examples/large_scale.py

The batched execution core plans whole tree levels and charges them to the
ledger in bulk, so a field of 50k nodes — far beyond what the per-edge
reference path handles comfortably — answers root-initiated aggregate
queries in fractions of a second, with exactly the same bit-level accounting
the small experiments use.  The script

1. builds a ~50k-node grid field with one reading per node,
2. answers COUNT, SUM, MAX and an adaptive-size SUM over the spanning tree,
   timing each sweep,
3. re-runs the smallest sweep on the per-edge path for a wall-clock
   comparison (on a subsampled 10k field, where per-edge is still bearable),
   verifying the two ledgers agree bit for bit.
"""

from __future__ import annotations

import time
from operator import add

import numpy as np

from repro.analysis.report import format_table
from repro.network.simulator import SensorNetwork
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.workloads.generators import generate_workload

FIELD_NODES = 50_176  # 224 x 224 grid
COMPARISON_NODES = 10_000  # 100 x 100 grid


def build_field(num_nodes: int) -> SensorNetwork:
    readings = generate_workload("uniform", num_nodes, max_value=1 << 16, seed=0)
    # degree_bound=None keeps construction at O(n): the bounded-degree
    # re-parenting heuristic is the slow part at this scale, not the sweeps.
    return SensorNetwork.from_items(
        readings, topology="grid", seed=0, degree_bound=None
    )


def timed_query(network: SensorNetwork, name: str, local_values, combine, size_bits):
    network.reset_ledger()
    started = time.perf_counter()
    broadcast(network, f"{name}-request", 32, protocol=f"{name}-request")
    answer = convergecast(
        network, local_values, combine, size_bits, protocol=name
    )
    elapsed = time.perf_counter() - started
    snapshot = network.ledger.snapshot()
    return [
        name,
        answer,
        round(elapsed * 1000, 1),
        snapshot.max_node_bits,
        snapshot.messages,
    ]


def main() -> None:
    started = time.perf_counter()
    field = build_field(FIELD_NODES)
    build_seconds = time.perf_counter() - started
    print(
        f"built a {field.num_nodes}-node grid field "
        f"(tree height {field.flat_tree.height}) in {build_seconds:.2f}s\n"
    )

    # Each node's local step, for every node at once, from the item columns.
    items = field.item_columns
    sums = items.sums()
    rows = [
        timed_query(field, "COUNT", items.lengths.tolist(), add, 32),
        timed_query(field, "SUM", sums, add, 64),
        timed_query(field, "MAX", items.reduce(np.maximum, None), max, 32),
        timed_query(
            field, "SUM(adaptive)", sums, add, lambda value: max(8, value.bit_length())
        ),
    ]
    print(format_table(
        ["query", "answer", "wall-clock (ms)", "max node bits", "messages"],
        rows,
        title=f"Root-initiated aggregates over {field.num_nodes} nodes (batched)",
    ))

    # Wall-clock comparison on a 10k field, where per-edge is still bearable.
    comparison = build_field(COMPARISON_NODES)
    timings = {}
    snapshots = {}
    for mode in ("batched", "per-edge"):
        comparison.execution = mode
        comparison.reset_ledger()
        started = time.perf_counter()
        broadcast(comparison, "sum-request", 32, protocol="sum-request")
        convergecast(
            comparison, comparison.item_columns.sums(), add, 64, protocol="SUM"
        )
        timings[mode] = time.perf_counter() - started
        snapshots[mode] = comparison.ledger.snapshot()
    print()
    print(format_table(
        ["execution path", "wall-clock (ms)"],
        [[mode, round(seconds * 1000, 1)] for mode, seconds in timings.items()],
        title=f"Same SUM round trip at {comparison.num_nodes} nodes",
    ))
    identical = snapshots["batched"] == snapshots["per-edge"]
    print(
        f"\nledgers bit-for-bit identical: {'yes' if identical else 'NO'}; "
        f"batched is {timings['per-edge'] / timings['batched']:.1f}x faster"
    )


if __name__ == "__main__":
    main()
