"""One engine, many tenants: the multi-tenant standing-query service.

:class:`MultiTenantEngine` is the runtime half of the tenancy layer.  It
owns one :class:`~repro.streaming.ContinuousQueryEngine`, which serves any
mix of queries on any network (each leg on the kernel its query and the
field pick), and drives it through the shared plan the
:class:`~repro.tenancy.QueryPlanner` maintains:

* :meth:`register` admits a tenant's query through the planner; only a
  decision that creates a **new leg** registers anything on the engine
  (and its announcement broadcast is billed to the admitting tenant).
  Shared and degraded registrations touch no engine state — Q tenants on
  one leg cost exactly what one tenant costs;
* :meth:`advance_epoch` advances the underlying engine once — one charged
  convergecast and one ε-suppression decision **per leg**, not per tenant
  (the plan-aware suppression: a leg's slack high-water mark is shared by
  every subscriber) — then splits the epoch's per-leg ledger deltas into
  the per-tenant columns (:class:`~repro.tenancy.TenantLedgerSplit`) and
  derives every tenant's answer at the root from the shared summaries
  (``root_summary`` + the *tenant's own* ``answer()``, so fraction-only
  quantile differences are resolved root-side for free).

The engine duck-types what :func:`~repro.faults.run_faulty_stream` needs
(``advance_epoch`` / ``apply_repair`` / ``apply_root_change`` /
``queries`` / ``network`` / ``energy_model``), so the whole resilient
stack — heartbeat detection, tree repair, root fail-over — serves all
tenants through the one shared plan.

Telemetry: admissions count under ``tenant.admissions`` (labelled by
status and tier), each epoch's split runs inside a ``tenant.split`` span
and bills per-tenant ``tenant.bits`` counters; ``tenant.legs`` /
``tenant.queries`` gauges track the dedup ratio.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.network.energy import EnergyModel
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import StandingQuery
from repro.streaming.trace import EpochRecord
from repro.tenancy.ledger import TenantLedgerSplit
from repro.tenancy.planner import AdmissionDecision, QueryPlanner


class MultiTenantEngine:
    """Serve many tenants' standing queries through one shared plan."""

    def __init__(
        self,
        network: SensorNetwork,
        epsilon: float = 0.1,
        energy_model: EnergyModel | None = None,
        bits_budget: int | None = None,
        **engine_kwargs: Any,
    ) -> None:
        self.network = network
        self.engine = ContinuousQueryEngine(
            network, epsilon, energy_model, **engine_kwargs
        )
        self.planner = QueryPlanner(
            num_nodes=network.num_nodes, bits_budget=bits_budget
        )
        self.split = TenantLedgerSplit()
        #: Tenant -> query name -> (the tenant's own query, its leg).
        self._tenant_queries: dict[str, dict[str, tuple[StandingQuery, str]]] = {}
        self._tenant_answers: dict[str, dict[str, Any]] = {}
        #: Ledger bits already settled into the split, per protocol key.
        self._accounted: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        tenant: str,
        name: str,
        query: StandingQuery,
        tier: str = "standard",
    ) -> AdmissionDecision:
        """Admit one tenant query into the shared plan.

        Returns the planner's :class:`~repro.tenancy.AdmissionDecision`;
        a ``rejected`` decision leaves the engine, the plan and the ledger
        untouched (the tenant simply gets no answers for this name).
        """
        if not tenant or not name:
            raise ConfigurationError(
                "tenant and query name must be non-empty strings"
            )
        if name in self._tenant_queries.get(tenant, {}):
            raise ConfigurationError(
                f"tenant {tenant!r} already registered query {name!r}"
            )
        decision = self.planner.admit(tenant, name, query, tier=tier)
        if decision.status == "admitted":
            self.engine.register(decision.leg, self.planner.leg(decision.leg).query)
            self._settle_registrations()
        if decision.admitted:
            self._tenant_queries.setdefault(tenant, {})[name] = (
                query,
                decision.leg,
            )
        telemetry = self.network.telemetry
        if telemetry.enabled:
            telemetry.count(
                "tenant.admissions",
                1,
                status=decision.status,
                tier=decision.tier,
            )
            telemetry.gauge("tenant.legs", len(self.planner.legs()))
            telemetry.gauge(
                "tenant.queries",
                sum(len(queries) for queries in self._tenant_queries.values()),
            )
        return decision

    # ------------------------------------------------------------------ #
    # Epoch execution
    # ------------------------------------------------------------------ #
    def advance_epoch(
        self, updates: Mapping[int, Sequence[int]] | None = None
    ) -> EpochRecord:
        """Advance the shared plan one epoch and bill every tenant.

        Returns the underlying engine's
        :class:`~repro.streaming.EpochRecord` (per-leg answers and the
        plan's total epoch cost); per-tenant derived answers are read via
        :meth:`tenant_answers`.
        """
        if not self.planner.legs():
            raise ConfigurationError(
                "no admitted standing queries; register() at least one "
                "tenant query first"
            )
        record = self.engine.advance_epoch(updates)
        telemetry = self.network.telemetry
        with telemetry.span("tenant.split", epoch=record.epoch) as span:
            epoch_shares = self._settle_epoch()
            self._derive_answers()
            if telemetry.enabled:
                span.annotate(
                    bits=sum(epoch_shares.values()),
                    tenants=len(epoch_shares),
                    legs=len(self.planner.legs()),
                )
                for tenant, bits in epoch_shares.items():
                    telemetry.count("tenant.bits", bits, tenant=tenant)
        return record

    # ------------------------------------------------------------------ #
    # Fault recovery + engine passthroughs
    # ------------------------------------------------------------------ #
    def apply_repair(self, result) -> None:
        self.engine.apply_repair(result)

    def apply_root_change(self, election) -> None:
        self.engine.apply_root_change(election)

    def queries(self) -> dict[str, StandingQuery]:
        """The shared plan's leg queries (what the network actually runs)."""
        return self.engine.queries()

    def close(self) -> None:
        """Release underlying resources (sharded worker pools)."""
        self.engine.close()

    @property
    def energy_model(self) -> EnergyModel:
        return self.engine.energy_model

    # ------------------------------------------------------------------ #
    # Answers
    # ------------------------------------------------------------------ #
    def tenant_answers(self, tenant: str) -> dict[str, Any]:
        """One tenant's latest answers by its own query names."""
        return dict(self._tenant_answers.get(tenant, {}))

    def answers(self) -> dict[str, dict[str, Any]]:
        """Every tenant's latest answers (empty before the first epoch)."""
        return {
            tenant: dict(answers)
            for tenant, answers in self._tenant_answers.items()
        }

    def tenants(self) -> list[str]:
        """Tenants with at least one served (non-rejected) query."""
        return sorted(self._tenant_queries)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def plan_bits(self) -> int:
        """Total bits the shared plan has charged the network ledger.

        The sum of every leg's protocol keys (epoch traffic plus
        registration broadcasts) — exactly what the tenant columns of
        :attr:`split` must add up to.
        """
        per_protocol = self.network.ledger.per_protocol_bits()
        return sum(
            per_protocol.get(key, 0)
            for leg in self.planner.legs()
            for key in self._leg_keys(leg)
        )

    def decomposition_holds(self) -> bool:
        """The ledger-split invariant, checked against the network ledger."""
        return (
            self.split.decomposition_holds()
            and self.split.total_bits == self.plan_bits()
        )

    def _leg_keys(self, leg_name: str) -> tuple[str, str]:
        epoch_key = f"{self.engine.protocol_prefix}:{leg_name}"
        return epoch_key, f"{epoch_key}:register"

    def _settle_registrations(self) -> None:
        """Bill unaccounted registration broadcasts to each leg's owner."""
        per_protocol = self.network.ledger.per_protocol_bits()
        for leg_name, leg in self.planner.legs().items():
            _, register_key = self._leg_keys(leg_name)
            charged = per_protocol.get(register_key, 0)
            delta = charged - self._accounted.get(register_key, 0)
            if delta:
                self.split.charge_direct(leg.owner, delta)
                self._accounted[register_key] = charged

    def _settle_epoch(self) -> dict[str, int]:
        """Split this epoch's per-leg ledger deltas; returns tenant shares."""
        self._settle_registrations()
        per_protocol = self.network.ledger.per_protocol_bits()
        leg_deltas: dict[str, int] = {}
        for leg_name in self.planner.legs():
            epoch_key, _ = self._leg_keys(leg_name)
            charged = per_protocol.get(epoch_key, 0)
            delta = charged - self._accounted.get(epoch_key, 0)
            if delta:
                leg_deltas[leg_name] = delta
                self._accounted[epoch_key] = charged
        return self.split.split_epoch(leg_deltas, self.planner.subscriptions())

    def _derive_answers(self) -> None:
        """Per-tenant answers off the shared root summaries.

        Each tenant's *own* query extracts the answer, so parameters the
        plan signature excludes (a quantile's fraction) apply here, at the
        root, for free.  A leg whose summary has not reached the root yet
        (nothing transmitted so far) yields no answer — matching the
        single-tenant engines' behaviour.
        """
        for tenant, queries in self._tenant_queries.items():
            answers = self._tenant_answers.setdefault(tenant, {})
            for name, (query, leg) in queries.items():
                summary = self.engine.root_summary(leg)
                if summary is not None:
                    answers[name] = query.answer(summary)
