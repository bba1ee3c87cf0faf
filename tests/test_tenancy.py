"""Multi-tenant tenancy layer: planner, ledger split, and equivalence.

The tenancy layer's contract has two halves, and this suite checks both
the deterministic mechanics and the randomized end-to-end behaviour:

* **answers**: dedup changes *who pays*, never *what is answered* — every
  tenant's per-epoch answer must be number-identical to a dedicated
  single-tenant engine's (reliable radios), and the whole shared plan
  must be a bit-for-bit twin of a full-plan reference engine under lossy
  and duplicating radios with faults in flight;
* **billing**: the per-tenant ledger columns must sum *exactly* to the
  shared plan's charged bits after every epoch, under every topology,
  radio, query mix and fault script the randomized cases draw.

Large randomized cases carry the ``slow`` marker (tier-1 CI deselects
them on the oldest interpreter).
"""

import random

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import FaultEngine, run_faulty_stream
from repro.network.radio import DuplicatingRadio, LossyRadio, ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import (
    REGISTRATION_BITS,
    CountQuery,
    DistinctCountQuery,
    MedianQuery,
    PredicateCountQuery,
    QuantileQuery,
)
from repro.tenancy import (
    MultiTenantEngine,
    QueryPlanner,
    TenantLedgerSplit,
    degrade_target,
    plan_signature,
)
from repro.workloads.faults import crash_storm_script, link_storm_script
from repro.workloads.streams import DriftStream, make_stream

DOMAIN = 1 << 10
RADIOS = {
    "reliable": lambda seed: ReliableRadio(),
    "lossy": lambda seed: LossyRadio(loss_rate=0.25, seed=seed),
    "duplicating": lambda seed: DuplicatingRadio(duplicate_rate=0.3, seed=seed),
}


def build_network(topology, seed, num_nodes, radio=None, execution="batched"):
    network = SensorNetwork.from_items(
        [0] * num_nodes,
        topology=topology,
        seed=seed,
        radio=radio if radio is not None else ReliableRadio(),
        execution=execution,
    )
    network.clear_items()
    return network


def build_mix(rng, num_tenants):
    """A seeded random tenant mix over the five standing-query families.

    Distinct tenants draw overlapping queries (same family, independently
    constructed instances) so the planner's signature dedup is exercised
    on every case; quantile tenants vary only the queried fraction, which
    must share a q-digest leg.
    """
    mix = []
    for index in range(num_tenants):
        family = rng.choice(["count", "countp", "median", "quantile", "distinct"])
        if family == "count":
            query = CountQuery()
        elif family == "countp":
            query = PredicateCountQuery(lambda v: v < DOMAIN // 2, "below_mid")
        elif family == "median":
            query = MedianQuery(universe_size=DOMAIN + 1, compression=64)
        elif family == "quantile":
            query = QuantileQuery(
                rng.choice([0.25, 0.5, 0.75]),
                universe_size=DOMAIN + 1,
                compression=64,
            )
        else:
            query = DistinctCountQuery(num_registers=32, salt=7)
        mix.append((f"t{index:02d}", f"q_{family}", query))
    return mix


# --------------------------------------------------------------------------- #
# QueryPlanner: signatures, sharing, admission tiers
# --------------------------------------------------------------------------- #
class TestQueryPlanner:
    def test_same_signature_shares_one_leg(self):
        planner = QueryPlanner(num_nodes=25)
        first = planner.admit("acme", "total", CountQuery())
        second = planner.admit("globex", "fleet", CountQuery())
        assert first.status == "admitted"
        assert second.status == "shared"
        assert second.leg == first.leg
        assert len(planner.legs()) == 1
        assert sorted(planner.subscriptions()[first.leg]) == [
            ("acme", "total"),
            ("globex", "fleet"),
        ]

    def test_quantile_fraction_is_excluded_from_the_signature(self):
        planner = QueryPlanner(num_nodes=25)
        median = planner.admit(
            "acme", "median", MedianQuery(universe_size=DOMAIN + 1, compression=64)
        )
        quartile = planner.admit(
            "globex",
            "p25",
            QuantileQuery(0.25, universe_size=DOMAIN + 1, compression=64),
        )
        assert quartile.status == "shared"
        assert quartile.leg == median.leg

    def test_different_parameters_get_their_own_legs(self):
        planner = QueryPlanner(num_nodes=25)
        planner.admit("a", "m64", MedianQuery(universe_size=DOMAIN + 1, compression=64))
        wider = planner.admit(
            "b", "m128", MedianQuery(universe_size=DOMAIN + 1, compression=128)
        )
        assert wider.status == "admitted"
        assert len(planner.legs()) == 2

    def test_predicate_signature_uses_the_description(self):
        assert plan_signature(
            PredicateCountQuery(lambda v: v < 5, "below_five")
        ) == plan_signature(PredicateCountQuery(lambda v: v <= 4, "below_five"))
        assert plan_signature(
            PredicateCountQuery(lambda v: v < 5, "below_five")
        ) != plan_signature(PredicateCountQuery(lambda v: v < 6, "below_six"))

    def test_standard_tenant_is_rejected_when_budget_is_exhausted(self):
        planner = QueryPlanner(num_nodes=25, bits_budget=1)
        decision = planner.admit("acme", "total", CountQuery())
        assert decision.status == "rejected"
        assert not decision.admitted
        assert planner.legs() == {}

    def test_gold_tenant_is_admitted_over_budget(self):
        planner = QueryPlanner(num_nodes=25, bits_budget=1)
        decision = planner.admit("acme", "total", CountQuery(), tier="gold")
        assert decision.status == "admitted"
        assert decision.over_budget
        assert len(planner.legs()) == 1

    def test_best_effort_degrades_onto_a_compatible_leg(self):
        planner = QueryPlanner(num_nodes=25, bits_budget=10_000)
        fine = planner.admit(
            "acme", "m256", MedianQuery(universe_size=DOMAIN + 1, compression=256),
            tier="gold",
        )
        coarse = planner.admit(
            "globex",
            "m32",
            MedianQuery(universe_size=DOMAIN + 1, compression=32),
            tier="best_effort",
        )
        if coarse.status == "degraded":
            assert coarse.leg == fine.leg
        else:
            # Budget still had room: degradation must not have triggered.
            assert coarse.status == "admitted"

    def test_count_tenants_never_degrade(self):
        planner = QueryPlanner(num_nodes=1_000_000, bits_budget=100)
        planner.admit("acme", "below", PredicateCountQuery(lambda v: v < 5, "lo"),
                      tier="gold")
        decision = planner.admit(
            "globex", "above", PredicateCountQuery(lambda v: v >= 5, "hi"),
            tier="best_effort",
        )
        assert decision.status == "rejected"

    def test_exact_share_is_free_even_when_budget_is_exhausted(self):
        planner = QueryPlanner(num_nodes=1_000_000, bits_budget=100)
        first = planner.admit("acme", "total", CountQuery(), tier="gold")
        shared = planner.admit("globex", "fleet", CountQuery())
        assert shared.status == "shared"
        assert shared.leg == first.leg

    def test_degrade_target_prefers_same_universe_qdigest(self):
        planner = QueryPlanner(num_nodes=25)
        planner.admit("a", "c", CountQuery())
        target = planner.admit(
            "a", "m", MedianQuery(universe_size=DOMAIN + 1, compression=64)
        )
        signature = plan_signature(
            QuantileQuery(0.9, universe_size=DOMAIN + 1, compression=16)
        )
        assert degrade_target(signature, planner.legs()) == target.leg
        count_signature = plan_signature(CountQuery())
        assert degrade_target(count_signature, planner.legs()) is None


# --------------------------------------------------------------------------- #
# TenantLedgerSplit: the exact-decomposition arithmetic
# --------------------------------------------------------------------------- #
class TestTenantLedgerSplit:
    def test_remainder_bits_go_to_the_first_sorted_units(self):
        split = TenantLedgerSplit()
        shares = split.split_epoch(
            {"leg00": 10},
            {"leg00": [("c", "q"), ("a", "q"), ("b", "q")]},
        )
        # 10 over 3 units: 4 for 'a' (first in sorted order), 3 each after.
        assert shares == {"a": 4, "b": 3, "c": 3}
        assert split.total_bits == 10
        assert split.decomposition_holds()

    def test_zero_bit_epochs_bill_nobody(self):
        split = TenantLedgerSplit()
        assert split.split_epoch({"leg00": 0}, {"leg00": [("a", "q")]}) == {}
        assert split.total_bits == 0

    def test_charging_a_leg_with_no_subscribers_fails_loudly(self):
        split = TenantLedgerSplit()
        with pytest.raises(ConfigurationError, match="no subscribers"):
            split.split_epoch({"leg00": 8}, {})

    def test_negative_bits_are_rejected(self):
        split = TenantLedgerSplit()
        with pytest.raises(ConfigurationError):
            split.split_epoch({"leg00": -1}, {"leg00": [("a", "q")]})
        with pytest.raises(ConfigurationError):
            split.charge_direct("a", -1)

    def test_randomized_splits_always_decompose_exactly(self):
        rng = random.Random(1234)
        split = TenantLedgerSplit()
        recorded = 0
        for _ in range(200):
            legs = {
                f"leg{i:02d}": rng.randrange(0, 5000)
                for i in range(rng.randrange(1, 5))
            }
            subscriptions = {
                leg: [
                    (f"t{rng.randrange(8):02d}", f"q{j}")
                    for j in range(rng.randrange(1, 6))
                ]
                for leg in legs
            }
            split.split_epoch(legs, subscriptions)
            recorded += sum(legs.values())
            assert split.total_bits == recorded
            assert split.decomposition_holds()
        assert sum(split.columns().values()) == recorded


# --------------------------------------------------------------------------- #
# MultiTenantEngine: registration guards and answer derivation
# --------------------------------------------------------------------------- #
class TestMultiTenantEngine:
    def test_duplicate_tenant_query_name_is_rejected(self):
        service = MultiTenantEngine(build_network("grid", 0, 9))
        service.register("acme", "total", CountQuery())
        with pytest.raises(ConfigurationError, match="already registered"):
            service.register("acme", "total", CountQuery())

    def test_empty_tenant_name_is_rejected(self):
        service = MultiTenantEngine(build_network("grid", 0, 9))
        with pytest.raises(ConfigurationError):
            service.register("", "total", CountQuery())

    def test_advancing_with_no_admitted_queries_fails_loudly(self):
        service = MultiTenantEngine(build_network("grid", 0, 9))
        with pytest.raises(ConfigurationError, match="register"):
            service.advance_epoch({})

    def test_rejected_tenant_gets_no_answers(self):
        service = MultiTenantEngine(build_network("grid", 0, 9), bits_budget=1)
        service.register("acme", "gold_total", CountQuery(), tier="gold")
        rejected = service.register("globex", "total", MedianQuery(
            universe_size=DOMAIN + 1, compression=64
        ))
        assert rejected.status == "rejected"
        service.advance_epoch({0: [5], 1: [9]})
        assert service.tenant_answers("globex") == {}
        assert "acme" in service.answers()
        assert service.tenants() == ["acme"]

    def test_quantile_tenants_share_a_leg_but_answer_differently(self):
        network = build_network("grid", 3, 25)
        service = MultiTenantEngine(network, epsilon=0.0)
        service.register("acme", "median", MedianQuery(
            universe_size=DOMAIN + 1, compression=256
        ))
        service.register(
            "globex",
            "p25",
            QuantileQuery(0.25, universe_size=DOMAIN + 1, compression=256),
        )
        assert len(service.planner.legs()) == 1
        rng = random.Random(42)
        service.advance_epoch(
            {nid: [rng.randrange(DOMAIN)] for nid in network.node_ids()}
        )
        median = service.tenant_answers("acme")["median"]
        quartile = service.tenant_answers("globex")["p25"]
        assert quartile <= median

    def test_answers_survive_quiet_epochs(self):
        service = MultiTenantEngine(build_network("grid", 0, 9), epsilon=0.1)
        service.register("acme", "total", CountQuery())
        service.advance_epoch({0: [5]})
        first = service.tenant_answers("acme")["total"]
        service.advance_epoch({})
        assert service.tenant_answers("acme")["total"] == first

    def test_telemetry_counts_admissions_and_split_bits(self):
        from repro.telemetry import SpanTracer

        network = build_network("grid", 0, 16)
        network.telemetry = SpanTracer()
        service = MultiTenantEngine(network)
        service.register("acme", "total", CountQuery())
        service.register("globex", "fleet", CountQuery())
        service.advance_epoch({0: [5], 1: [7]})
        metrics = network.telemetry.metrics
        assert metrics.counter_value(
            "tenant.admissions", status="admitted", tier="standard"
        ) == 1
        assert metrics.counter_value(
            "tenant.admissions", status="shared", tier="standard"
        ) == 1
        assert metrics.gauge_value("tenant.legs") == 1
        assert metrics.gauge_value("tenant.queries") == 2
        # tenant.bits meters the epoch shares; the registration broadcast is
        # billed via charge_direct to the leg owner, outside the counter.
        registration_bits = service.split.total_bits - sum(
            metrics.counter_value("tenant.bits", tenant=tenant)
            for tenant in ("acme", "globex")
        )
        assert registration_bits == REGISTRATION_BITS * (network.num_nodes - 1)
        split_spans = network.telemetry.spans_named("tenant.split")
        assert len(split_spans) == 1
        assert split_spans[0].attributes["legs"] == 1
        assert split_spans[0].attributes["tenants"] == 2


# --------------------------------------------------------------------------- #
# Randomized equivalence: shared plan vs dedicated engines (reliable radio)
# --------------------------------------------------------------------------- #
def run_equivalence_case(topology, seed, num_nodes, num_tenants, epochs):
    """One randomized case: shared service vs one dedicated engine per tenant.

    Asserts per epoch that every tenant's answer is number-identical to its
    dedicated engine's and that the tenant columns sum exactly to the shared
    network's total charged bits.
    """
    rng = random.Random(seed * 9176 + 5)
    mix = build_mix(rng, num_tenants)

    shared_net = build_network(topology, seed, num_nodes)
    service = MultiTenantEngine(shared_net, epsilon=0.1)
    for tenant, name, query in mix:
        decision = service.register(tenant, name, query)
        assert decision.admitted
    # Five query families at most: overlap is guaranteed, dedup must bite.
    assert len(service.planner.legs()) < num_tenants

    dedicated = {}
    streams = {}
    for tenant, name, query in mix:
        network = build_network(topology, seed, num_nodes)
        engine = ContinuousQueryEngine(network, epsilon=0.1)
        engine.register(name, query)
        dedicated[tenant] = (name, engine)
        streams[tenant] = make_stream(
            "drift", num_nodes, max_value=DOMAIN, seed=seed
        )

    shared_stream = make_stream("drift", num_nodes, max_value=DOMAIN, seed=seed)
    for epoch in range(epochs):
        updates = (
            shared_stream.initial() if epoch == 0 else shared_stream.step(epoch)
        )
        service.advance_epoch(updates)
        # Billing: exact decomposition against the engine's plan keys and
        # against everything the shared network charged at all.
        assert service.decomposition_holds()
        assert service.split.total_bits == shared_net.ledger.total_bits
        for tenant, (name, engine) in dedicated.items():
            stream = streams[tenant]
            own = stream.initial() if epoch == 0 else stream.step(epoch)
            engine.advance_epoch(own)
            assert engine.answers().get(name) == service.tenant_answers(
                tenant
            ).get(name), f"tenant {tenant} ({name}) diverged at epoch {epoch}"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("topology", ["grid", "random_geometric", "random_tree"])
def test_tenant_answers_match_dedicated_engines(topology, seed):
    # Seed off stable inputs only (str.__hash__ is randomized per process).
    rng = random.Random(seed * 6151 + len(topology) * 17)
    run_equivalence_case(
        topology,
        seed,
        num_nodes=rng.choice([25, 36, 49]),
        num_tenants=6 + rng.randrange(5),
        epochs=6,
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_tenant_answers_match_dedicated_engines_at_scale(seed):
    run_equivalence_case(
        "random_geometric", seed, num_nodes=400, num_tenants=16, epochs=8
    )


# --------------------------------------------------------------------------- #
# Randomized equivalence: lossy radios and faults vs a full-plan twin
# --------------------------------------------------------------------------- #
def run_twin_case(radio_name, seed, with_faults, epochs=6, num_nodes=36):
    """Shared service vs a reference engine running the identical plan.

    Under lossy / duplicating radios the legs share each link's send
    count, so per-tenant dedicated engines are not bit-comparable; the
    contract instead is that the whole service is a *twin* of one plain
    engine running the same legs in the same order on an identically
    seeded network — same answers, same ledger — while the tenant columns
    keep decomposing the shared bits exactly.
    """
    rng = random.Random(seed * 7321 + 11)
    topology = rng.choice(["grid", "random_geometric"])
    mix = build_mix(rng, 8)

    arms = []
    legs = None
    for arm in ("shared", "reference"):
        network = build_network(
            topology, seed, num_nodes, radio=RADIOS[radio_name](seed)
        )
        if arm == "shared":
            engine = MultiTenantEngine(network, epsilon=0.1)
            for tenant, name, query in mix:
                engine.register(tenant, name, query)
            legs = [
                (leg_name, leg.query)
                for leg_name, leg in engine.planner.legs().items()
            ]
        else:
            engine = ContinuousQueryEngine(network, epsilon=0.1)
            for leg_name, query in legs:
                engine.register(leg_name, query)
        if with_faults:
            script = crash_storm_script(
                network.node_ids(), epoch=1, fraction=0.2, seed=seed,
                rejoin_epoch=3, rejoin_value_max=DOMAIN,
            ).merge(
                link_storm_script(
                    network.links, epoch=1, fraction=0.1, seed=seed,
                    restore_epoch=3,
                )
            )
        else:
            script = None
        faults = FaultEngine(network, script=script) if script else None
        if faults is not None:
            trace = run_faulty_stream(
                engine,
                DriftStream(num_nodes, max_value=DOMAIN, seed=seed),
                faults,
                epochs=epochs,
            )
        else:
            stream = DriftStream(num_nodes, max_value=DOMAIN, seed=seed)
            records = []
            for epoch in range(epochs):
                updates = stream.initial() if epoch == 0 else stream.step(epoch)
                records.append(engine.advance_epoch(updates))
            trace = records
        arms.append((network, engine, trace))

    (shared_net, service, shared_trace) = arms[0]
    (reference_net, reference, reference_trace) = arms[1]
    # The plan runs identically: per-leg answers and costs, bit for bit.
    assert [r.answers for r in shared_trace] == [
        r.answers for r in reference_trace
    ]
    # Faulted runs yield FaultEpochRecords (total_bits), plain runs
    # EpochRecords (bits) — either way, identical epoch by epoch.
    def epoch_bits(record):
        bits = getattr(record, "total_bits", None)
        return record.bits if bits is None else bits

    assert [epoch_bits(r) for r in shared_trace] == [
        epoch_bits(r) for r in reference_trace
    ]
    left, right = shared_net.ledger.snapshot(), reference_net.ledger.snapshot()
    assert left.per_node_bits == right.per_node_bits
    assert left.per_protocol_bits == right.per_protocol_bits
    # Billing still decomposes exactly — faults, retries and all.
    assert service.decomposition_holds()
    # Per-tenant answers are the reference's summaries through each
    # tenant's own query.
    subscriptions = service.planner.subscriptions()
    for tenant, name, query in mix:
        leg = next(
            leg_name
            for leg_name, units in subscriptions.items()
            if (tenant, name) in units
        )
        summary = reference.root_summary(leg)
        expected = None if summary is None else query.answer(summary)
        assert service.tenant_answers(tenant).get(name) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("radio_name", ["lossy", "duplicating"])
def test_shared_plan_is_twin_of_reference_engine(radio_name, seed):
    run_twin_case(radio_name, seed, with_faults=False)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("radio_name", sorted(RADIOS))
def test_shared_plan_is_twin_of_reference_engine_under_faults(radio_name, seed):
    run_twin_case(radio_name, seed, with_faults=True)


@pytest.mark.slow
@pytest.mark.parametrize("radio_name", ["lossy"])
def test_shared_plan_twin_under_faults_at_scale(radio_name):
    run_twin_case(radio_name, seed=4, with_faults=True, epochs=8, num_nodes=100)


# --------------------------------------------------------------------------- #
# FlightRecorder under a multi-tenant burst: drop-and-count at capacity
# --------------------------------------------------------------------------- #
class TestFlightRecorderUnderBurst:
    def test_ring_drops_count_and_chains_survive_truncation(self):
        """A tiny ring under a faulted multi-tenant run overflows honestly.

        The ring must stay at capacity, count every eviction, keep event
        ids monotonic across drops, and leave the retained causal chains
        unambiguous: a ``cause_event_id`` either resolves inside the ring
        or is provably older than everything retained — never dangling
        into the future or duplicated.
        """
        from repro.telemetry import FlightRecorder, SpanTracer

        capacity = 24
        recorder = FlightRecorder(capacity=capacity)
        network = build_network("grid", 5, 36)
        network.telemetry = SpanTracer(flight=recorder)
        service = MultiTenantEngine(network, epsilon=0.1)
        for tenant, name, query in build_mix(random.Random(99), 8):
            service.register(tenant, name, query)
        script = crash_storm_script(
            network.node_ids(), epoch=1, fraction=0.25, seed=5,
            rejoin_epoch=3, rejoin_value_max=DOMAIN,
        )
        faults = FaultEngine(network, script=script)
        run_faulty_stream(
            service,
            DriftStream(36, max_value=DOMAIN, seed=5),
            faults,
            epochs=6,
        )

        assert recorder.dropped > 0
        assert len(recorder.events) == capacity
        ids = [event.event_id for event in recorder.events]
        assert ids == sorted(ids)
        assert len(set(ids)) == capacity
        # Monotonic ids across drops: total ever recorded = retained + dropped.
        assert max(ids) == capacity + recorder.dropped
        oldest_retained = min(ids)
        retained = set(ids)
        chained = 0
        for event in recorder.events:
            cause = event.cause_event_id
            if cause is None:
                continue
            assert cause < event.event_id
            # Either resolvable in the ring or strictly older than the
            # ring's oldest survivor (evicted, but still unambiguous).
            assert cause in retained or cause < oldest_retained
            if cause in retained:
                chained += 1
        # Truncation must not sever every chain: the storm's injections and
        # their downstream repairs land close enough together that some
        # retained events still resolve their cause in-ring.
        assert chained > 0
