"""Builtin sweep specs: the E10–E14 studies expressed as data.

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

#: Name -> spec data for every sweep the CLI and the docs gate can resolve.
BUILTIN_SWEEPS: dict[str, dict] = {
    # E10 — incremental vs recompute engines over one identical stream,
    # swept over workload x seed; headline: the bits savings factor at the
    # same ε-approximation guarantee.
    "e10_streaming": {
        "experiment": "streaming",
        "axes": {"workload": ("drift", "burst"), "seed": (0, 1)},
        "base": {"n": 100, "epochs": 30, "epsilon": 0.1, "topology": "grid"},
        "smoke": {"n": 64, "epochs": 8},
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
            "scenario": ("crash_storm", "regional_outage", "link_storm"),
            "detector_period": (None, 4),
            "seed": (0,),
        },
        "base": {
            "n": 400,
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
    # grows like Q over the number of distinct plan signatures.
    "e14_multitenant": {
        "experiment": "multitenant",
        "axes": {"tenants": (8, 16, 32), "seed": (0, 1)},
        "base": {
            "n": 100,
            "epochs": 12,
            "epsilon": 0.1,
            "topology": "grid",
            "workload": "drift",
        },
        "smoke": {"n": 64, "epochs": 8},
    },
}

#: Parameters that size a study: every value must be a positive integer.
_SIZE_PARAMETERS = ("n", "epochs", "tenants")


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
