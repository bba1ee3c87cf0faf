"""Scaling study: reproduce the paper's who-wins-as-N-grows story on your laptop.

Run with::

    python examples/scaling_study.py

Sweeps the network size and prints, for each N, the maximum per-node
communication of:

* the exact binary-search median of Fig. 1 (Theorem 3.2, O((log N)^2)),
* the naive TAG treatment of MEDIAN (ship every value, Θ(N log N) at the root),
* exact COUNT DISTINCT (Ω(N), Theorem 5.1),
* approximate COUNT DISTINCT (O(log log N), Section 5).

It then fits power-law exponents to the measurements and extrapolates where
the polyloglog median of Fig. 4 overtakes the exact one (the constants of the
LogLog sketches make that crossover astronomically far out — which the paper,
being an asymptotic note, never disputes).
"""

from __future__ import annotations

from repro.analysis.experiments import run_baseline_comparison, run_count_distinct_study
from repro.analysis.report import format_table
from repro.analysis.theory import (
    exact_median_bits_envelope,
    polyloglog_median_bits_envelope,
    predicted_crossover,
)

SIZES = [64, 144, 324, 729]


def main() -> None:
    # One study call per protocol: its measures hold the ladder's per-size
    # bits (``max_node_bits_n<N>``) and the fitted growth exponent — the
    # numbers `python scripts/sweep.py run e8_baselines e7_count_distinct`
    # caches and reports.  Table column -> (measures, measure-name prefix).
    interesting = {
        label: (
            run_baseline_comparison(SIZES, protocol=protocol, apx_registers=32).measures,
            "",
        )
        for label, protocol in (
            ("MEDIAN (Fig.1)", "fig1_median"),
            ("APX_MEDIAN2 (Fig.4)", "fig4_apx_median2"),
            ("naive ship-all", "naive_ship_all"),
        )
    }
    distinct = run_count_distinct_study(SIZES).measures
    interesting["COUNT_DISTINCT(exact)"] = (distinct, "exact_")
    interesting["COUNT_DISTINCT(loglog,m=64)"] = (distinct, "approx_")

    rows = [
        [n] + [m[f"{prefix}max_node_bits_n{n}"] for m, prefix in interesting.values()]
        for n in SIZES
    ]
    print(format_table(
        ["N"] + list(interesting), rows,
        title="Max per-node bits as the network grows",
    ))

    print()
    fit_rows = [
        [label, round(m[f"{prefix}bits_growth_exponent"], 2)]
        for label, (m, prefix) in interesting.items()
    ]
    print(format_table(
        ["protocol", "fitted growth exponent (cost ~ N^p)"],
        fit_rows,
        title="Growth-rate fits (p ~ 1 means linear, p ~ 0 means polylog)",
    ))

    # Model-based crossover extrapolation for Fig. 1 vs Fig. 4.
    n0 = SIZES[0]
    fig1_bits = interesting["MEDIAN (Fig.1)"][0][f"max_node_bits_n{n0}"]
    fig4_bits = interesting["APX_MEDIAN2 (Fig.4)"][0][f"max_node_bits_n{n0}"]
    exact_constant = fig1_bits / exact_median_bits_envelope(n0, n0 * n0)
    approx_constant = fig4_bits / polyloglog_median_bits_envelope(
        n0, num_registers=32, beta=1 / 16, epsilon=0.25
    )
    crossover = predicted_crossover(
        exact_constant, approx_constant, num_registers=32, beta=1 / 16, epsilon=0.25
    )
    print()
    if crossover is None:
        print("Extrapolated crossover of Fig. 4 below Fig. 1: beyond 2^400 items "
              "(the constants of the counting sketches dominate at any realistic N).")
    else:
        print(f"Extrapolated crossover of Fig. 4 below Fig. 1: N ~ {crossover:.3g} items.")


if __name__ == "__main__":
    main()
