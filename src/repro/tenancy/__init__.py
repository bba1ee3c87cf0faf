"""Multi-tenant standing-query service: shared plans, per-tenant ledgers.

One :class:`~repro.streaming.ContinuousQueryEngine` serves one client;
production means many tenants posting *overlapping* standing queries.
This subpackage turns Q overlapping registrations into one shared summary
plan — in the one-for-all spirit of robust-computation batching — so the
network pays for each distinct aggregate once:

* :mod:`repro.tenancy.planner` — :class:`QueryPlanner` deduplicates
  registrations by :func:`plan_signature` into shared **legs** (one
  charged convergecast each), with ``gold`` / ``standard`` /
  ``best_effort`` admission tiers that reject or degrade new legs under a
  bits budget;
* :mod:`repro.tenancy.ledger` — :class:`TenantLedgerSplit`, the
  per-tenant :class:`~repro.network.CommunicationLedger` split whose
  tenant columns sum *exactly* to the shared plan's charged bits;
* :mod:`repro.tenancy.engine` — :class:`MultiTenantEngine`, the runtime:
  one underlying engine serving any query mix on any network, per-epoch
  splits, per-tenant answers derived at the root from the shared
  summaries.

Quick start::

    from repro import CountQuery, MedianQuery, SensorNetwork
    from repro.tenancy import MultiTenantEngine

    network = SensorNetwork.from_items([0] * 100, topology="grid")
    service = MultiTenantEngine(network, epsilon=0.1)
    service.register("acme", "fleet_count", CountQuery())
    service.register("globex", "fleet_count", CountQuery())   # shared leg
    service.register("acme", "median", MedianQuery(universe_size=1 << 16))
    service.advance_epoch({0: [7], 1: [9]})
    print(service.tenant_answers("acme"), service.split.columns())

See ``docs/MULTITENANT.md`` for the planner model, the admission tiers and
the ledger-split invariant; the ``e14_multitenant`` sweep measures
the ≥5x sublinear total-bits growth for overlapping query sets.
"""

from repro.tenancy.engine import MultiTenantEngine
from repro.tenancy.ledger import TenantLedgerSplit
from repro.tenancy.planner import (
    ADMISSION_STATUSES,
    TIERS,
    AdmissionDecision,
    QueryPlanner,
    SharedLeg,
    degrade_target,
    estimate_leg_bits,
    plan_signature,
)

__all__ = [
    "MultiTenantEngine",
    "TenantLedgerSplit",
    "QueryPlanner",
    "SharedLeg",
    "AdmissionDecision",
    "ADMISSION_STATUSES",
    "TIERS",
    "plan_signature",
    "estimate_leg_bits",
    "degrade_target",
]
