"""Environmental monitoring scenario: a correlated sensor field under repeated queries.

Run with::

    python examples/environmental_monitoring.py

This is the workload TAG-style systems were motivated by: a field of sensors
reporting spatially correlated readings (a smooth gradient plus hotspots).
The example issues a sequence of queries a monitoring dashboard would ask —
how many sensors are up, what is the hottest reading, what is the typical
(median) reading, how many distinct quantised levels are present — and shows
per-node energy consumption, including what happens when the radio links are
lossy.
"""

from __future__ import annotations

from repro import (
    DeterministicMedianProtocol,
    EnergyModel,
    MaxProtocol,
    SensorNetwork,
)
from repro.analysis.report import format_table
from repro.core.apx_median2 import PolyloglogMedianProtocol
from repro.distinct import ApproxDistinctCountProtocol, ExactDistinctCountProtocol
from repro.network.radio import LossyRadio
from repro.protocols.aggregates import AverageProtocol, CountProtocol
from repro.workloads.generators import correlated_field_values

SIDE = 16
MAX_READING = 4095  # 12-bit ADC


def build_field(radio=None) -> tuple[SensorNetwork, list[int]]:
    readings = correlated_field_values(SIDE * SIDE, max_value=MAX_READING, seed=2024)
    network = SensorNetwork.from_items(readings, topology="grid", radio=radio)
    return network, readings


def dashboard_queries(network: SensorNetwork) -> list[list[object]]:
    rows = []

    def run(name, protocol, answer_of=lambda value: value):
        network.reset_ledger()
        result = protocol.run(network)
        rows.append([name, answer_of(result.value), result.max_node_bits])

    run("sensors reporting", CountProtocol())
    run("hottest reading", MaxProtocol())
    run("mean reading", AverageProtocol(), lambda value: round(value, 1))
    run("median reading (exact, Fig. 1)", DeterministicMedianProtocol(), lambda o: o.median)
    run(
        "median reading (polyloglog, Fig. 4)",
        PolyloglogMedianProtocol(beta=1 / 16, num_registers=128, seed=3),
        lambda o: o.value,
    )
    run(
        "distinct quantised levels (exact)",
        ExactDistinctCountProtocol(domain_max=MAX_READING),
    )
    run(
        "distinct quantised levels (LogLog)",
        ApproxDistinctCountProtocol(num_registers=128, seed=5),
        lambda o: round(o.estimate, 1),
    )
    return rows


def main() -> None:
    network, readings = build_field()
    rows = dashboard_queries(network)
    print(format_table(
        ["query", "answer", "max bits per node"],
        rows,
        title=f"Monitoring dashboard over a {SIDE}x{SIDE} field (readings 0..{MAX_READING})",
    ))

    # Energy picture for one full dashboard refresh (all queries above).
    network.reset_ledger()
    for _ in dashboard_queries(network):
        pass
    report = EnergyModel().report(network.ledger)
    hottest = sorted(report.per_node_nj.items(), key=lambda kv: -kv[1])[:5]
    tree = network.flat_tree
    print()
    print(format_table(
        ["node", "depth in tree", "energy (nJ)"],
        [[node, int(tree.depth[tree.index[node]]), round(nj, 1)] for node, nj in hottest],
        title="Hottest nodes after one dashboard refresh",
    ))
    print(f"\nTotal energy per refresh: {report.total_nj / 1e6:.2f} mJ; "
          f"peak node: {report.peak_node_nj / 1e3:.1f} uJ")

    # The same dashboard over lossy links: answers unchanged, energy up.
    lossy_network, _ = build_field(radio=LossyRadio(loss_rate=0.2, seed=11, max_retries=64))
    lossy_rows = dashboard_queries(lossy_network)
    exact_median_reliable = rows[3][1]
    exact_median_lossy = lossy_rows[3][1]
    print()
    print("With 20% link loss and retransmissions:")
    print(f"  exact median unchanged: {exact_median_reliable} -> {exact_median_lossy}")
    reliable_bits = sum(row[2] for row in rows)
    lossy_bits = sum(row[2] for row in lossy_rows)
    print(f"  per-node bits for the dashboard grew from {reliable_bits} to {lossy_bits} "
          f"({lossy_bits / reliable_bits:.2f}x)")


if __name__ == "__main__":
    main()
