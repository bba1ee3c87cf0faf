"""Builtin sweep specs: the E1–E14 studies expressed as data.

Each entry is a spec in the schema ``docs/SWEEPS.md`` documents
(``experiment`` / ``axes`` / ``base`` / ``constraints``) whose cells call
the study function of that experiment kind
(:data:`repro.sweeps.cells.CELL_RUNNERS`), plus one ``smoke`` table: the
parameter values that replace the full-size ones when a caller asks for
the smoke set.  Every spec therefore has exactly two parameter sets —
*full* (the sizes README quotes) and *smoke* (the sizes CI runs) —
selected by the one boolean of :func:`get_sweep`.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.sweeps.spec import Constraint, SweepSpec

_GRID = {"topology": "grid", "workload": "uniform", "seed": 0}
_AGGREGATES = ("MIN", "MAX", "COUNT", "SUM", "AVG")

#: Name -> spec data for every sweep the CLI and the docs gate can resolve.
BUILTIN_SWEEPS: dict[str, dict] = {
    # E1 — Fact 2.1: each TAG aggregate's per-node bits up a grid ladder;
    # the fitted exponent (far below 1) is the claim.
    "e1_primitives": {
        "experiment": "primitive_aggregates",
        "axes": {"aggregate": _AGGREGATES},
        "base": {"sizes": (64, 144, 324, 729, 1024), **_GRID},
        "smoke": {"sizes": (16, 64, 144)},
    },
    # E1b — the same aggregates at one size across topologies: with a
    # bounded-degree tree no topology is far worse than the best.
    "e1b_topologies": {
        "experiment": "primitive_aggregates",
        "axes": {
            "aggregate": _AGGREGATES,
            "topology": ("grid", "line", "random_geometric", "single_hop"),
        },
        "base": {"sizes": (256,), "workload": "uniform", "seed": 0},
        "smoke": {"sizes": (64,)},
    },
    # E2 — Fact 2.2: APX_COUNT's error tracks 1.30/sqrt(m) and its cost is
    # flat in N, swept over the sketch size m.
    "e2_apx_count": {
        "experiment": "apx_count",
        "axes": {"num_registers": (16, 64, 256)},
        "base": {"sizes": (256, 1024, 4096), "trials": 5, **_GRID},
        "smoke": {"sizes": (64, 256)},
    },
    # E3 — Theorem 3.2: Fig. 1 is exact and grows like (log N)^2.
    "e3_exact_median": {
        "experiment": "exact_median",
        "axes": {"seed": (0,)},
        "base": {"sizes": (64, 144, 324, 729, 1600), "topology": "grid", "workload": "uniform"},
        "smoke": {"sizes": (36, 64, 144)},
    },
    # E3b — the worst-case bound is input independent: one size, five value
    # distributions.
    "e3b_workloads": {
        "experiment": "exact_median",
        "axes": {
            "workload": ("uniform", "zipf", "clustered", "bimodal", "adversarial_near_median")
        },
        "base": {"sizes": (400,), "topology": "grid", "seed": 0},
        "smoke": {"sizes": (100,)},
    },
    # E4 — Section 3.4: the same search answers any rank at the same cost.
    "e4_order_statistics": {
        "experiment": "exact_median",
        "axes": {"quantile": (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)},
        "base": {"sizes": (400,), **_GRID},
        "smoke": {"sizes": (100,)},
    },
    # E5 — Theorem 4.5: Fig. 2's success rate over repeated runs, swept over
    # the sketch size (a larger sketch gives a tighter rank error).
    "e5_apx_median": {
        "experiment": "apx_median",
        "axes": {"num_registers": (64, 256)},
        "base": {"n": 225, "trials": 20, "epsilon": 0.2, "seed": 3},
        "smoke": {"n": 64, "trials": 4},
    },
    # E5b — Theorem 4.6: one run per target rank on a fixed 50,000-wide input.
    "e5b_apx_order_statistics": {
        "experiment": "apx_median",
        "axes": {"quantile": (0.1, 0.25, 0.5, 0.75, 0.9)},
        "base": {
            "n": 225, "trials": 1, "epsilon": 0.2, "num_registers": 256, "domain_max": 50_000,
            "alpha_floor": 0.3, "beta_slack": 0.1, "seed": 5, "trial_seed": 11,
        },
        "smoke": {"n": 64, "num_registers": 64},
    },
    # E6 — Corollary 4.8: APX_MEDIAN2's cost is flat in N and its zoom-in
    # delivers the requested value precision β = 1/16.
    "e6_polyloglog": {
        "experiment": "polyloglog_median",
        "axes": {"seed": (0,)},
        "base": {"sizes": (64, 256, 1024), "beta": 0.0625, "epsilon": 0.25, "num_registers": 32},
        "smoke": {"sizes": (64, 256)},
    },
    # E6b — tripling the value width inflates Fig. 1 far more than Fig. 4.
    "e6b_domain_width": {
        "experiment": "polyloglog_median",
        "axes": {"domain_max": ((1 << 10) - 1, (1 << 20) - 1, (1 << 30) - 1)},
        "base": {
            "sizes": (144,), "beta": 0.125, "epsilon": 0.25, "num_registers": 16,
            "repetition_cap": 2, "seed": 8, "protocol_seed": 4,
        },
        "smoke": {"sizes": (36,)},
    },
    # E7 — Theorem 5.1: exact COUNT DISTINCT is linear on a line of distinct
    # values, LogLog is flat.
    "e7_count_distinct": {
        "experiment": "count_distinct",
        "axes": {"seed": (0,)},
        "base": {"sizes": (64, 256, 1024, 4096), "num_registers": 64, "topology": "line"},
        "smoke": {"sizes": (32, 128)},
    },
    # E7b — the Set-Disjointness reduction itself, exact vs LogLog; smoke
    # keeps the 16x span the cut-traffic claim is stated over.
    "e7b_disjointness": {
        "experiment": "disjointness",
        "axes": {"seed": (1,)},
        "base": {"sizes": (64, 256, 1024)},
        "smoke": {"sizes": (64, 1024)},
    },
    # E8 — Section 1's comparison: the paper's three protocols and five
    # prior approaches on the same inputs, one contender per cell.
    "e8_baselines": {
        "experiment": "baseline_comparison",
        "axes": {
            "protocol": (
                "fig1_median", "fig2_apx_median", "fig4_apx_median2",
                "naive_ship_all", "sampling", "gk_summary", "qdigest", "gossip",
            )
        },
        "base": {"sizes": (64, 256, 1024), "apx_registers": 32, **_GRID},
        "smoke": {"sizes": (64, 256)},
    },
    # E9a — the REP_COUNTP repetition cap: cost grows with it, accuracy does
    # not get worse.
    "e9a_repetition_cap": {
        "experiment": "apx_median",
        "axes": {"repetition_cap": (1, 2, 4, 8)},
        "base": {"n": 144, "trials": 10, "epsilon": 0.2, "num_registers": 64, "seed": 0},
        "smoke": {"n": 64, "trials": 4},
    },
    # E9b — the remark after Fact 2.1: on a single-hop clique the
    # bounded-degree tree shields the hub (``None`` is the plain BFS tree).
    "e9b_degree_bound": {
        "experiment": "exact_median",
        "axes": {"degree_bound": (None, 2, 3, 8)},
        "base": {"sizes": (256,), "topology": "single_hop", "workload": "uniform", "seed": 0},
        "smoke": {"sizes": (64,)},
    },
    # E9c — the α-counting black box of Theorem 4.5: LogLog vs HyperLogLog.
    "e9c_counting_sketch": {
        "experiment": "apx_median",
        "axes": {"sketch": ("loglog", "hyperloglog")},
        "base": {
            "n": 225, "trials": 8, "epsilon": 0.2, "num_registers": 64, "domain_max": 50_000,
            "alpha_floor": 0.5, "seed": 9, "trial_seed": 300,
        },
        "smoke": {"n": 64, "trials": 3},
    },
    # E10 — incremental vs recompute engines over one identical stream,
    # swept over workload x seed; headline: the bits savings factor at the
    # same ε-approximation guarantee.
    "e10_streaming": {
        "experiment": "streaming",
        "axes": {"workload": ("drift", "burst"), "seed": (0, 1)},
        "base": {"n": 100, "epochs": 60, "epsilon": 0.1, "topology": "grid"},
        "smoke": {"n": 64, "epochs": 8},
    },
    # E10b — the savings by stream dynamics: burst and churn amortise like
    # drift, seasonal (dense change) still wins through deltas.
    "e10b_dynamics": {
        "experiment": "streaming",
        "axes": {"workload": ("burst", "churn", "seasonal")},
        "base": {"n": 64, "epochs": 40, "epsilon": 0.1, "topology": "grid", "seed": 1},
        "smoke": {"epochs": 20},
    },
    # E11 — the batched vs per-edge execution paths on one broadcast + SUM
    # convergecast round trip, swept over network size; the ledger-identity
    # verdict is the measure, the speedup is timing.
    "e11_scaling": {
        "experiment": "scaling",
        "axes": {"n": (1_000, 10_000, 100_000)},
        "base": {
            "topology": "grid",
            "per_edge_limit": 20_000,
            "repeats": 3,
            "seed": 0,
        },
        "smoke": {"n": (256, 1024)},
    },
    # E12 — incremental repair vs rebuild under one fault script, swept
    # over scenario x detector period x seed.  The constraint prunes the
    # heartbeat arm of ``link_storm``: heartbeats detect *node* crashes,
    # while link failures are oracle-detected by the sender's missing ack,
    # so a charged detector on a link-only scenario measures nothing but
    # its own overhead.
    "e12_fault_tolerance": {
        "experiment": "fault_tolerance",
        "axes": {
            "scenario": ("crash_storm", "regional_outage", "churn", "link_storm"),
            "detector_period": (None, 4),
            "seed": (0,),
        },
        "base": {
            "n": 10_000,
            "epochs": 8,
            "crash_fraction": 0.1,
            "epsilon": 0.1,
            "topology": "random_geometric",
        },
        "smoke": {"n": 64},
        "constraints": (
            Constraint(
                when={"scenario": ("link_storm",)},
                require={"detector_period": (None,)},
            ),
        ),
    },
    # E12c — the cost of knowing about failures: the E12 crash storm with
    # the heartbeat period as the axis (``None`` is the uncharged oracle
    # row).  Longer periods pay fewer detection bits but detect later.
    "e12c_heartbeat": {
        "experiment": "fault_tolerance",
        "axes": {"detector_period": (None, 1, 2, 4, 8)},
        "base": {
            "scenario": "crash_storm",
            "n": 256,
            "epochs": 12,
            "crash_fraction": 0.1,
            "storm_epoch": 3,
            "rejoin_epoch": 9,
            "epsilon": 0.1,
            "topology": "random_geometric",
            "seed": 0,
        },
        "smoke": {"n": 64},
    },
    # E13 — a scripted root crash survived by charged election + cache
    # migration vs election + rebuild-and-recompute, swept over seed.
    "e13_root_failover": {
        "experiment": "root_failover",
        "axes": {"seed": (0, 1)},
        "base": {
            "n": 10_000,
            "epochs": 8,
            "crash_epoch": 2,
            "epsilon": 0.1,
            "topology": "random_geometric",
        },
        "smoke": {"n": 256},
    },
    # E14 — Q overlapping tenant queries through one shared plan vs Q
    # dedicated engines, swept over tenant count x seed; the savings factor
    # grows like Q over the number of distinct plan signatures.  A full-size
    # cell runs up to 32 dedicated 10,000-node engines, so it takes one seed
    # and leaves the second to the smoke set.
    "e14_multitenant": {
        "experiment": "multitenant",
        "axes": {"tenants": (8, 16, 32), "seed": (0,)},
        "base": {
            "n": 10_000,
            "epochs": 6,
            "epsilon": 0.1,
            "topology": "grid",
            "workload": "drift",
        },
        "smoke": {"n": 64, "epochs": 8, "seed": (0, 1)},
    },
}

#: Parameters that size a study: every value must be a positive integer.
_SIZE_PARAMETERS = ("n", "epochs", "tenants", "trials")


def get_sweep(name: str, smoke: bool = False, **overrides) -> SweepSpec:
    """Resolve a builtin sweep: its full parameter set, or its smoke set.

    ``overrides`` replace a base value, or an axis's value tuple, by the
    spec's own parameter name (``num_nodes`` is accepted for ``n``); an
    override of ``None`` keeps the spec's value.  A name the spec does not
    have, or a non-positive size, is a
    :class:`~repro.exceptions.ConfigurationError` — an explicit bad value
    never silently runs the default study.
    """
    try:
        entry = BUILTIN_SWEEPS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep {name!r}; builtin: {sorted(BUILTIN_SWEEPS)}"
        ) from None
    axes = dict(entry["axes"])
    base = dict(entry["base"])
    if "num_nodes" in overrides:
        overrides["n"] = overrides.pop("num_nodes")
    for key, value in {**(entry["smoke"] if smoke else {}), **overrides}.items():
        if value is None:
            continue
        if key not in axes and key not in base:
            raise ConfigurationError(
                f"sweep {name!r} has no parameter {key!r}; "
                f"known: {sorted({*axes, *base})}"
            )
        values = tuple(value) if key in axes else (value,)
        if key in _SIZE_PARAMETERS and not all(
            isinstance(size, int) and not isinstance(size, bool) and size > 0
            for size in values
        ):
            raise ConfigurationError(
                f"sweep {name!r}: {key} must be a positive integer, "
                f"got {value!r}"
            )
        if key in axes:
            axes[key] = values
        else:
            base[key] = value
    return SweepSpec(
        name=name,
        experiment=entry["experiment"],
        axes=axes,
        base=base,
        constraints=entry.get("constraints", ()),
    )
