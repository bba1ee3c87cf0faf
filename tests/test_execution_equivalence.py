"""Cross-path ledger equivalence: batched vs per-edge execution.

The batched execution core's contract is that it is *indistinguishable* from
the per-edge reference in everything the paper measures: the same per-node
bits, totals, message counts, rounds and per-protocol breakdowns, under every
topology and radio model, for the same seeds.  These property-style tests
build twin networks — identical graphs, items, trees and identically seeded
radios — run one under each execution mode, and compare full ledger
snapshots (and protocol results) field by field.
"""

import random

import pytest

from repro.core.median import DeterministicMedianProtocol
from repro.network.radio import DuplicatingRadio, LossyRadio, ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import CountProtocol, SumProtocol
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.protocols.epoch_convergecast import epoch_convergecast

TOPOLOGIES = ["grid", "line", "star", "random_geometric", "random_tree"]
RADIOS = {
    "reliable": lambda seed: ReliableRadio(),
    "lossy": lambda seed: LossyRadio(loss_rate=0.35, seed=seed),
    "duplicating": lambda seed: DuplicatingRadio(duplicate_rate=0.3, seed=seed),
}
SEEDS = [0, 1, 2]


def twin_networks(topology, radio_name, seed, num_nodes=36):
    rng = random.Random(seed * 7919 + 13)
    items = [rng.randrange(1, 400) for _ in range(num_nodes)]
    networks = []
    for mode in ("batched", "per-edge"):
        networks.append(
            SensorNetwork.from_items(
                items,
                topology=topology,
                seed=seed,
                radio=RADIOS[radio_name](seed),
                execution=mode,
            )
        )
    return networks


def assert_ledgers_identical(batched, per_edge):
    left = batched.ledger.snapshot()
    right = per_edge.ledger.snapshot()
    assert left.per_node_bits == right.per_node_bits
    assert left.total_bits == right.total_bits
    assert left.max_node_bits == right.max_node_bits
    assert left.messages == right.messages
    assert left.rounds == right.rounds
    assert left.per_protocol_bits == right.per_protocol_bits


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("radio_name", sorted(RADIOS))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_tree_sweeps_are_ledger_identical(topology, radio_name, seed):
    """Broadcast + adaptive-size convergecast + epoch convergecast."""
    batched, per_edge = twin_networks(topology, radio_name, seed)
    rng = random.Random(seed + 101)
    dirty = {
        node_id
        for node_id in batched.node_ids()
        if rng.random() < 0.3
    } or {batched.node_ids()[-1]}

    def decide(node_id, updates):
        # Deterministic mix of suppression and adaptive payload sizes.
        if node_id % 5 == 0 and not updates:
            return None
        return ("summary", 8 + (node_id % 3) * 4 + 2 * len(updates))

    results = []
    stats = []
    for network in (batched, per_edge):
        broadcast(network, "query", 24, protocol="request")
        results.append(
            convergecast(
                network,
                local_value=lambda node: sum(node.items),
                combine=lambda a, b: a + b,
                size_bits=lambda value: max(8, value.bit_length()),
                protocol="sum",
            )
        )
        stats.append(
            epoch_convergecast(network, set(dirty), decide, protocol="epoch")
        )
    assert results[0] == results[1]
    assert stats[0] == stats[1]
    assert_ledgers_identical(batched, per_edge)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("radio_name", ["reliable", "lossy"])
@pytest.mark.parametrize("topology", ["grid", "random_geometric"])
def test_metered_protocols_are_ledger_identical(topology, radio_name, seed):
    """Full protocol objects (MeteredRun + sub-protocols) across both paths."""
    batched, per_edge = twin_networks(topology, radio_name, seed, num_nodes=36)
    for protocol in (CountProtocol(), SumProtocol()):
        outcomes = []
        for network in (batched, per_edge):
            network.reset_ledger()
            outcomes.append(protocol.run(network))
        assert outcomes[0] == outcomes[1]
        assert_ledgers_identical(batched, per_edge)


@pytest.mark.parametrize("seed", range(6))
def test_delivery_failure_charges_identically(seed):
    """A permanent link failure mid-sweep charges the same prefix on both paths.

    The per-edge loop charges every transmission delivered before the failing
    link and nothing for the failure itself; the batched path must land on
    exactly the same ledger before the DeliveryError propagates.
    """
    from repro.exceptions import DeliveryError

    nets = [
        SensorNetwork.from_items(
            list(range(1, 13)),
            topology="line",
            radio=LossyRadio(loss_rate=0.9, max_retries=1, seed=seed),
            execution=mode,
        )
        for mode in ("batched", "per-edge")
    ]
    raised = []
    for network in nets:
        try:
            convergecast(
                network,
                local_value=lambda node: sum(node.items),
                combine=lambda a, b: a + b,
                size_bits=16,
                protocol="sum",
            )
            raised.append(False)
        except DeliveryError:
            raised.append(True)
    assert raised[0] == raised[1]
    assert raised[0], "loss_rate=0.9 with 1 retry should fail on a 12-node line"
    assert_ledgers_identical(*nets)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_budget_breach_is_identical_including_radio_state(seed):
    """A budget breach raises at the same transmission with the same RNG state.

    Exact-protocol lower-bound tests catch BudgetExceededError and keep using
    the network, so after the breach both the ledger and the lossy radio's
    randomness must be indistinguishable between execution paths.
    """
    from repro.exceptions import BudgetExceededError
    from repro.network.accounting import CommunicationLedger
    from repro.network.topology import line_topology

    nets = [
        SensorNetwork(
            line_topology(10),
            radio=LossyRadio(loss_rate=0.4, seed=seed),
            ledger=CommunicationLedger(per_node_budget_bits=30),
            execution=mode,
        )
        for mode in ("batched", "per-edge")
    ]
    raised = []
    for network in nets:
        try:
            convergecast(
                network,
                local_value=lambda node: 1,
                combine=lambda a, b: a + b,
                size_bits=16,
                protocol="count",
            )
            raised.append(False)
        except BudgetExceededError:
            raised.append(True)
    assert raised[0] == raised[1]
    assert raised[0], "a 16-bit convergecast over a 10-line must breach 30 bits"
    assert_ledgers_identical(*nets)
    assert nets[0].radio._rng.getstate() == nets[1].radio._rng.getstate()


def test_adaptive_size_callable_invoked_identically():
    """Both paths call a stateful size callable once per transmitting node."""
    calls = {"batched": [], "per-edge": []}
    nets = [
        SensorNetwork.from_items(list(range(16)), topology="grid", execution=mode)
        for mode in ("batched", "per-edge")
    ]
    for mode, network in zip(("batched", "per-edge"), nets):
        log = calls[mode]
        convergecast(
            network,
            local_value=lambda node: sum(node.items),
            combine=lambda a, b: a + b,
            size_bits=lambda value: log.append(value) or max(8, value.bit_length()),
            protocol="sum",
        )
    assert calls["batched"] == calls["per-edge"]
    assert len(calls["batched"]) == nets[0].num_nodes - 1  # never for the root
    assert_ledgers_identical(*nets)


def test_single_node_network_is_ledger_identical():
    """Empty sweeps must leave no trace — not zero-bit per-protocol entries."""
    nets = [
        SensorNetwork.from_items([5], topology="line", execution=mode)
        for mode in ("batched", "per-edge")
    ]
    for network in nets:
        broadcast(network, "req", 16, protocol="req")
        total = convergecast(
            network,
            local_value=lambda node: sum(node.items),
            combine=lambda a, b: a + b,
            size_bits=8,
            protocol="sum",
        )
        assert total == 5
    assert nets[0].ledger.snapshot().per_protocol_bits == {}
    assert_ledgers_identical(*nets)


def test_zero_copy_custom_radio_epoch_equivalence():
    """A radio reporting zero delivered copies must not activate the parent."""
    from repro.network.radio import DeliveryOutcome, RadioModel

    class SilentLossRadio(RadioModel):
        """Deterministically charges but drops every third link."""

        def transmit(self, sender, receiver):
            if (sender + receiver) % 3 == 0:
                return DeliveryOutcome(attempts=1, copies_delivered=0)
            return DeliveryOutcome(attempts=1, copies_delivered=1)

    stats = []
    nets = []
    for mode in ("batched", "per-edge"):
        network = SensorNetwork.from_items(
            list(range(12)), topology="line", radio=SilentLossRadio(), execution=mode
        )
        nets.append(network)
        stats.append(
            epoch_convergecast(
                network, {11}, lambda nid, upd: ("d", 8), protocol="epoch"
            )
        )
    assert stats[0] == stats[1]
    assert_ledgers_identical(*nets)


@pytest.mark.parametrize("seed", [0, 1])
def test_deterministic_median_is_ledger_identical(seed):
    """The paper's Fig. 1 protocol — broadcasts and convergecasts interleaved."""
    batched, per_edge = twin_networks("grid", "reliable", seed, num_nodes=25)
    domain = 512
    outcomes = []
    for network in (batched, per_edge):
        outcomes.append(DeterministicMedianProtocol(domain_max=domain).run(network))
    assert outcomes[0].value.median == outcomes[1].value.median
    assert outcomes[0] == outcomes[1]
    assert_ledgers_identical(batched, per_edge)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("radio_name", sorted(RADIOS))
@pytest.mark.parametrize("topology", ["grid", "random_geometric"])
def test_faulted_sweeps_are_ledger_identical(topology, radio_name, seed):
    """Crash storm + rejoin + link storm, then every tree sweep, on both paths.

    The alive-mask, the incremental tree repair and the recovery traversals
    must charge bit-for-bit identically whether the execution core is batched
    or per-edge — including the repair control traffic itself, which goes
    through ``send_batch`` on both.
    """
    from repro.faults import FaultEngine, TreeRepair
    from repro.workloads.faults import crash_storm_script, link_storm_script

    batched, per_edge = twin_networks(topology, radio_name, seed)
    rng = random.Random(seed + 77)
    # One shared dirty set per epoch (drawn once, over ids common to both
    # twins), deliberately including crashed/detached ids: both paths must
    # ignore nodes outside the repaired tree identically.
    dirty_sets = {
        epoch: {
            node_id
            for node_id in batched.node_ids()
            if rng.random() < 0.4 or epoch == 1
        }
        for epoch in (0, 1)
    }
    results = []
    stats = []
    for network in (batched, per_edge):
        script = crash_storm_script(
            network.node_ids(), epoch=0, fraction=0.2, seed=seed, rejoin_epoch=1
        ).merge(
            link_storm_script(
                network.graph, epoch=0, fraction=0.1, seed=seed, restore_epoch=1
            )
        )
        faults = FaultEngine(network, script=script, repair=TreeRepair())
        for epoch in (0, 1):
            faults.step(epoch)
            broadcast(network, "query", 24, protocol="request")
            results.append(
                convergecast(
                    network,
                    local_value=lambda node: sum(node.items),
                    combine=lambda a, b: a + b,
                    size_bits=lambda value: max(8, value.bit_length()),
                    protocol="sum",
                )
            )
            stats.append(
                epoch_convergecast(
                    network,
                    set(dirty_sets[epoch]),
                    lambda nid, upd: None if nid % 7 == 0 else ("s", 8 + nid % 5),
                    protocol="epoch",
                )
            )
    half = len(results) // 2
    assert results[:half] == results[half:]
    assert stats[:half] == stats[half:]
    assert_ledgers_identical(batched, per_edge)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("radio_name", sorted(RADIOS))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_repair_paths_produce_identical_trees_and_ledgers(topology, radio_name, seed):
    """Randomized fault scripts: the two repair implementations are twins.

    The batched repair rewrites attached-set discovery, adoption-candidate
    enumeration, the rebuild estimate and the tree materialisation, so this
    suite drives both implementations through compound fault scripts (crash
    storm + link storm + churn + recovery) and requires *everything*
    observable to match: full ledger snapshots (per-node bits under lossy
    retries included), the post-repair parent/children/depth maps, and the
    flat-array view the batched traversals consume.
    """
    import random as random_module

    from repro.faults import FaultEngine, TreeRepair
    from repro.workloads.faults import (
        churn_script,
        crash_storm_script,
        link_storm_script,
    )

    rng = random_module.Random(seed * 6151 + 3)
    num_nodes = rng.choice([25, 36, 49, 64])
    items = [rng.randrange(1, 500) for _ in range(num_nodes)]
    networks = []
    reports = []
    for mode in ("batched", "per-edge"):
        network = SensorNetwork.from_items(
            items,
            topology=topology,
            seed=seed,
            radio=RADIOS[radio_name](seed),
            execution=mode,
        )
        script = crash_storm_script(
            network.node_ids(), epoch=0, fraction=0.25, seed=seed, rejoin_epoch=2
        ).merge(
            link_storm_script(
                network.graph, epoch=0, fraction=0.15, seed=seed, restore_epoch=2
            )
        ).merge(
            churn_script(
                network.node_ids(),
                epochs=4,
                churn_rate=0.12,
                start_epoch=1,
                seed=seed,
            )
        )
        faults = FaultEngine(network, script=script, repair=TreeRepair())
        reports.append([faults.step(epoch).repair for epoch in range(5)])
        networks.append(network)

    batched, per_edge = networks
    # Identical repair outcomes, epoch by epoch...
    assert reports[0] == reports[1]
    # ...identical repaired trees in every representation...
    assert batched.tree.parent == per_edge.tree.parent
    assert batched.tree.children == per_edge.tree.children
    assert batched.tree.depth == per_edge.tree.depth
    batched.tree.check_invariants()
    flat_b, flat_p = batched.flat_tree, per_edge.flat_tree
    # Structural arrays are representation-dependent (int64 buffers under
    # numpy); compare the canonical list view plus the id-level link caches.
    assert flat_b.to_lists() == flat_p.to_lists()
    for slot in ("up_links", "down_links"):
        assert getattr(flat_b, slot) == getattr(flat_p, slot), slot
    # ...and bit-for-bit identical ledgers, radio randomness included.
    assert_ledgers_identical(batched, per_edge)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("execution", ["batched", "per-edge"])
def test_fault_storm_stack_stays_consistent_at_scale(execution, seed):
    """A 10k-node storm-under-churn run keeps every invariant on both paths.

    The invariant sweep (``check_invariants`` + graph validation per epoch)
    dominates the runtime — this is the fault-storm stress test the ``slow``
    marker exists for; tier-1 CI runs it on the 3.12 leg only.
    """
    from repro.faults import FaultEngine, TreeRepair
    from repro.workloads.faults import storm_under_churn_script

    network = SensorNetwork.from_items(
        [0] * 10_000, topology="random_geometric", seed=seed, execution=execution
    )
    script = storm_under_churn_script(
        network.node_ids(),
        epochs=8,
        storm_epoch=1,
        storm_fraction=0.15,
        rejoin_epoch=4,
        churn_rate=0.005,
        seed=seed,
    )
    faults = FaultEngine(network, script=script, repair=TreeRepair())
    for epoch in range(8):
        faults.step(epoch)
        network.tree.check_invariants()
        network.tree.validate(
            network.graph, covering=set(network.tree.parent)
        )
    # The flat view the batched sweeps consume matches a from-scratch build.
    from repro.network.flat_tree import FlatTree

    scratch = FlatTree.from_spanning_tree(network.tree)
    flat_lists, scratch_lists = network.flat_tree.to_lists(), scratch.to_lists()
    assert flat_lists["node_ids"] == scratch_lists["node_ids"]
    assert flat_lists["parent"] == scratch_lists["parent"]
    assert flat_lists["child_index"] == scratch_lists["child_index"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_faulted_streaming_engines_are_ledger_identical(seed):
    """The full resilient stack (faults + repair + recovery) on both paths."""
    from repro.faults import FaultEngine, run_faulty_stream
    from repro.streaming.engine import ContinuousQueryEngine
    from repro.streaming.queries import CountQuery
    from repro.workloads.faults import crash_storm_script
    from repro.workloads.streams import DriftStream

    nets = []
    traces = []
    for mode in ("batched", "per-edge"):
        network = SensorNetwork.from_items(
            [0] * 36,
            topology="grid",
            seed=seed,
            radio=LossyRadio(loss_rate=0.25, seed=seed),
            execution=mode,
        )
        network.clear_items()
        engine = ContinuousQueryEngine(network, epsilon=0.0)
        engine.register("count", CountQuery())
        script = crash_storm_script(
            network.node_ids(), epoch=1, fraction=0.2, seed=seed, rejoin_epoch=3
        )
        faults = FaultEngine(network, script=script)
        traces.append(
            run_faulty_stream(
                engine,
                DriftStream(36, max_value=512, seed=seed),
                faults,
                epochs=5,
            )
        )
        nets.append(network)
    assert [record.answers for record in traces[0]] == [
        record.answers for record in traces[1]
    ]
    assert [record.total_bits for record in traces[0]] == [
        record.total_bits for record in traces[1]
    ]
    assert_ledgers_identical(*nets)
    assert nets[0].radio._rng.getstate() == nets[1].radio._rng.getstate()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("radio_name", ["reliable", "lossy"])
def test_multitenant_plan_and_split_identical_across_vectorized(radio_name, seed):
    """The tenancy layer is execution-blind: batched vs vectorized twins.

    For count-valued tenant mixes (all a vectorized network serves) the
    planner's admission decisions, the per-leg ledger keys, the per-tenant
    ledger columns and every tenant's per-epoch answers must be identical
    whether the shared plan runs on the batched reference engine or the
    numpy fused-sweep engine.
    """
    from repro.streaming.queries import CountQuery, PredicateCountQuery
    from repro.tenancy import MultiTenantEngine
    from repro.workloads.streams import make_stream

    mix = [
        ("acme", "total", CountQuery()),
        ("globex", "fleet", CountQuery()),
        ("initech", "low", PredicateCountQuery(lambda v: v < 200, "below_200")),
        ("acme", "low", PredicateCountQuery(lambda v: v <= 199, "below_200")),
        ("hooli", "high", PredicateCountQuery(lambda v: v >= 200, "at_least_200")),
    ]
    services = []
    networks = []
    for mode in ("batched", "vectorized"):
        network = SensorNetwork.from_items(
            [0] * 36,
            topology="grid",
            seed=seed,
            radio=RADIOS[radio_name](seed),
            execution=mode,
        )
        network.clear_items()
        service = MultiTenantEngine(network, epsilon=0.1)
        decisions = [
            service.register(tenant, name, query) for tenant, name, query in mix
        ]
        stream = make_stream("drift", 36, max_value=400, seed=seed)
        for epoch in range(5):
            updates = stream.initial() if epoch == 0 else stream.step(epoch)
            service.advance_epoch(updates)
            assert service.decomposition_holds()
        services.append((service, decisions))
        networks.append(network)

    (batched, batched_decisions), (vectorized, vectorized_decisions) = services
    assert [(d.status, d.leg, d.signature) for d in batched_decisions] == [
        (d.status, d.leg, d.signature) for d in vectorized_decisions
    ]
    assert batched.answers() == vectorized.answers()
    assert batched.split.columns() == vectorized.split.columns()
    for tenant, name, _query in mix:
        assert batched.split.leg_breakdown(tenant) == vectorized.split.leg_breakdown(
            tenant
        )
    assert batched.plan_bits() == vectorized.plan_bits()
    assert_ledgers_identical(*networks)
