"""Study functions for the experiments of DESIGN.md (E1–E14).

Each function runs one experiment and returns a :class:`StudyResult` whose
``measures`` it builds once; sweep cells (:mod:`repro.sweeps`,
``docs/SWEEPS.md``), the claim tests (``benchmarks/test_claims.py``), the
tier-1 tests and the example scripts all call that one function.  The
paper's one-shot studies (E1–E9) take their size ladder as a parameter —
a fitted growth exponent is a property of the whole ladder — and file each
rung's numbers under ``<name>_n<size>``; every other loop (topology,
workload, sketch size, quantile, …) is a sweep axis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from operator import add
from typing import Sequence

from repro.analysis.metrics import (
    fit_against_model,
    fit_growth_exponent,
    median_accuracy,
)
from repro.analysis.theory import exact_median_bits_envelope
from repro.baselines import (
    GKMedianProtocol,
    GossipMedianProtocol,
    NaiveShipAllMedianProtocol,
    QDigestMedianProtocol,
    SamplingMedianProtocol,
)
from repro.core.apx_median import (
    ApproximateMedianProtocol,
    ApproximateOrderStatisticProtocol,
)
from repro.core.apx_median2 import PolyloglogMedianProtocol
from repro.core.definitions import (
    is_approximate_order_statistic,
    rank,
    reference_median,
    reference_order_statistic,
)
from repro.core.median import DeterministicMedianProtocol
from repro.core.order_statistics import DeterministicOrderStatisticProtocol
from repro.core.rep_count import RepetitionPolicy
from repro.distinct import (
    ApproxDistinctCountProtocol,
    ExactDistinctCountProtocol,
    make_disjoint_instance,
    make_intersecting_instance,
    solve_disjointness_via_count_distinct,
)
from repro.exceptions import ConfigurationError
from repro.faults.detection import detector_from_config
from repro.faults.engine import FaultEngine
from repro.faults.repair import TreeRepair
from repro.faults.runner import run_faulty_stream
from repro.faults.trace import FaultTrace
from repro.network.simulator import SensorNetwork
from repro.network.topology import build_links
from repro.protocols.aggregates import (
    AverageProtocol,
    CountProtocol,
    MaxProtocol,
    MinProtocol,
    SumProtocol,
)
from repro.protocols.apx_count import ApproxCountProtocol
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import convergecast
from repro.streaming.engine import ContinuousQueryEngine
from repro.streaming.queries import (
    CountQuery,
    DistinctCountQuery,
    MedianQuery,
    PredicateCountQuery,
    QuantileQuery,
    StandingQuery,
)
from repro.streaming.recompute import RecomputeEngine
from repro.tenancy import MultiTenantEngine
from repro.workloads.faults import (
    FAULT_SCENARIOS,
    churn_script,
    crash_storm_script,
    link_storm_script,
    regional_outage_script,
    root_failover_script,
)
from repro.workloads.generators import generate_workload
from repro.workloads.streams import make_stream


@dataclass(frozen=True)
class StudyResult:
    """What every E1–E14 study returns: the (cost, answer) pair, said once.

    ``measures`` are the deterministic simulation results — bits, fitted
    exponents, savings factors, answer errors — as a flat dict of JSON
    scalars.  The dict *is* the sweep cell's ``measures`` section, so a
    sweep cell, a claim test and a tier-1 test all read the same numbers
    from the same place.  ``traces`` holds the in-process per-arm
    :class:`~repro.streaming.StreamingTrace` /
    :class:`~repro.faults.FaultTrace` of the streaming-era studies for
    callers that need epoch rows; it is never cached or serialised.
    ``timing`` is wall-clock: recorded for humans, machine-dependent, never
    compared.

    Every study takes ``telemetry=``, a recorder installed on its *subject*
    network only (the one-shot field / the incremental, fail-over or
    shared-plan arm), so that network emits the span taxonomy of
    ``docs/TELEMETRY.md``; a baseline arm is what the subject is compared
    against and stays uninstrumented.
    """

    measures: dict
    traces: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)


def default_domain(num_items: int) -> int:
    """The paper's standing assumption: values are polynomial in N (here N²)."""
    return max(4, num_items * num_items)


def build_network(
    num_items: int,
    workload: str = "uniform",
    topology: str = "grid",
    domain_max: int | None = None,
    seed: int = 0,
    degree_bound: int | None = 3,
    telemetry=None,
) -> tuple[SensorNetwork, list[int], int]:
    """Build a seeded network for one experiment point.

    Returns ``(network, items, domain_max)``.
    """
    domain = domain_max if domain_max is not None else default_domain(num_items)
    items = generate_workload(workload, num_items, max_value=domain, seed=seed)
    network = SensorNetwork.from_items(
        items,
        topology=topology,
        seed=seed,
        degree_bound=degree_bound,
        telemetry=telemetry,
    )
    return network, items, domain


def _checked(sizes: Sequence[int]) -> Sequence[int]:
    if not sizes:
        raise ConfigurationError("a study needs at least one size, got an empty ladder")
    return sizes


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigurationError(f"a study needs at least one trial, got {trials}")


def _ladder(sizes: Sequence[int], **build):
    """Yield ``(size, network, items, domain)`` up a one-shot study's size ladder."""
    for size in _checked(sizes):
        yield (size, *build_network(size, **build))


def _policy(repetition_cap: int | None) -> RepetitionPolicy | None:
    """REP_COUNTP's repetitions: the protocols' practical default, or capped."""
    if repetition_cap is None:
        return None
    return RepetitionPolicy.practical(cap=repetition_cap)


def _cost(result, prefix: str = "") -> dict:
    """The ledger columns of one protocol run (Chlebus et al.'s communication half)."""
    return {
        f"{prefix}max_node_bits": result.max_node_bits,
        f"{prefix}total_bits": result.total_bits,
        f"{prefix}messages": result.messages,
        f"{prefix}rounds": result.rounds,
    }


def _rung(measures: dict, size: int, **columns) -> None:
    """File one ladder rung's columns under ``<column>_n<size>``."""
    for name, value in columns.items():
        measures[f"{name}_n{size}"] = value


def _fit_ladder(measures: dict, sizes: Sequence[int], prefix: str = "", model=None) -> None:
    """Add the growth-rate fits of ``<prefix>max_node_bits`` over the ladder.

    ``<prefix>bits_growth_exponent`` is the power-law exponent p of
    ``cost ~ N^p``; with a ``model``, ``<prefix>bits_model_ratio_spread`` is
    how flat ``cost / model(N)`` stays.  Rounded to four places (the fits go
    through ``math.log``); absent on a single rung, which has no growth.
    """
    if len(sizes) < 2:
        return
    costs = [measures[f"{prefix}max_node_bits_n{size}"] for size in sizes]
    exponent, _ = fit_growth_exponent(sizes, costs)
    measures[f"{prefix}bits_growth_exponent"] = round(exponent, 4)
    if model is not None:
        _, spread = fit_against_model(sizes, costs, model)
        measures[f"{prefix}bits_model_ratio_spread"] = round(spread, 4)


def _named(table: dict, kind: str, name: str):
    try:
        return table[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; known: {sorted(table)}"
        ) from None


# --------------------------------------------------------------------------- #
# E1 — primitive aggregates (Fact 2.1)
# --------------------------------------------------------------------------- #
def run_primitive_aggregates_study(
    sizes: Sequence[int],
    aggregate: str = "COUNT",
    topology: str = "grid",
    workload: str = "uniform",
    seed: int = 0,
    telemetry=None,
) -> StudyResult:
    """E1: per-node cost of one of MIN / MAX / COUNT / SUM / AVG as N grows."""
    measures: dict = {}
    for size, network, _, domain in _ladder(
        sizes, workload=workload, topology=topology, seed=seed, telemetry=telemetry
    ):
        protocols = {
            "MIN": MinProtocol(domain_max=domain),
            "MAX": MaxProtocol(domain_max=domain),
            "COUNT": CountProtocol(),
            "SUM": SumProtocol(),
            "AVG": AverageProtocol(),
        }
        result = _named(protocols, "aggregate", aggregate).run(network)
        _rung(measures, size, **_cost(result), answer=result.value)
    _fit_ladder(measures, sizes, model=math.log2)
    return StudyResult(measures)


# --------------------------------------------------------------------------- #
# E2 — approximate counting (Fact 2.2)
# --------------------------------------------------------------------------- #
def run_apx_count_study(
    sizes: Sequence[int],
    num_registers: int = 64,
    trials: int = 5,
    topology: str = "grid",
    workload: str = "uniform",
    seed: int = 0,
    telemetry=None,
) -> StudyResult:
    """E2: accuracy and per-node bits of APX_COUNT versus N at sketch size m."""
    _check_trials(trials)
    measures: dict = {}
    for size, network, _, _ in _ladder(
        sizes, workload=workload, topology=topology, seed=seed, telemetry=telemetry
    ):
        protocol = ApproxCountProtocol(
            num_registers=num_registers, seed=seed, max_expected_count=4 * size
        )
        errors = []
        for _ in range(trials):
            network.reset_ledger()
            result = protocol.run(network)
            errors.append(abs(result.value.estimate - size) / size)
        _rung(
            measures,
            size,
            **_cost(result),
            answer=result.value.estimate,
            mean_relative_error=sum(errors) / trials,
            predicted_sigma=result.value.relative_sigma,
        )
    _fit_ladder(measures, sizes)
    return StudyResult(measures)


# --------------------------------------------------------------------------- #
# E3 / E4 / E9b — deterministic exact selection (Theorem 3.2, Section 3.4)
# --------------------------------------------------------------------------- #
def run_exact_median_study(
    sizes: Sequence[int],
    quantile: float = 0.5,
    topology: str = "grid",
    workload: str = "uniform",
    degree_bound: int | None = 3,
    seed: int = 0,
    telemetry=None,
) -> StudyResult:
    """E3: correctness and per-node bits of Fig. 1's binary search as N grows.

    ``quantile`` is E4's axis (Section 3.4: the same search answers any
    rank at the same cost) and ``degree_bound`` E9b's (the remark after
    Fact 2.1: on hub-heavy topologies an unbounded BFS tree concentrates
    traffic at the hub, the bounded-degree construction spreads it — the
    rung's ``tree_degree`` / ``tree_height`` say which tree was built).
    """
    measures: dict = {}
    for size, network, items, domain in _ladder(
        sizes, workload=workload, topology=topology, seed=seed,
        degree_bound=degree_bound, telemetry=telemetry,
    ):
        result = DeterministicOrderStatisticProtocol(
            quantile=quantile, domain_max=domain
        ).run(network)
        answer = result.value.value
        _rung(
            measures,
            size,
            **_cost(result),
            answer=answer,
            reference=reference_order_statistic(items, quantile * size),
            exact=median_accuracy(items, answer, quantile).exact,
            probes=result.value.probes,
            domain_max=domain,
            tree_degree=network.tree.max_degree(),
            tree_height=network.flat_tree.height,
        )
    _fit_ladder(
        measures, sizes, model=lambda n: exact_median_bits_envelope(n, n * n)
    )
    return StudyResult(measures)


# --------------------------------------------------------------------------- #
# E5 / E9a / E9c — approximate selection success probability (Theorems 4.5 / 4.6)
# --------------------------------------------------------------------------- #
def run_apx_median_study(
    num_nodes: int,
    trials: int = 20,
    epsilon: float = 0.2,
    num_registers: int = 256,
    quantile: float = 0.5,
    sketch: str = "loglog",
    repetition_cap: int | None = None,
    alpha_floor: float = 0.0,
    beta_slack: float = 0.05,
    domain_max: int | None = None,
    topology: str = "grid",
    workload: str = "uniform",
    seed: int = 0,
    trial_seed: int | None = None,
    telemetry=None,
) -> StudyResult:
    """E5: repeat Fig. 2 on one input; how often is the output an (α, β)-answer?

    A trial succeeds when its output is an (α, β) ``quantile``-order
    statistic with ``α = max(alpha_floor, 3σ)`` — the theorem's guarantee
    for the sketch in use — and ``β = beta_slack``, looser than the
    theorem's 1/N because the practical repetition policy runs far fewer
    repetitions than the paper's constants (see DESIGN.md §5).  Trial ``t``
    hashes with seed ``trial_seed + t`` (default ``1000 · seed + t``).
    ``quantile`` is E5b's axis (Theorem 4.6), ``repetition_cap`` E9a's (the
    REP_COUNTP cap; ``None`` is the practical default) and ``sketch`` E9c's
    (the α-counting black box).
    """
    _check_trials(trials)
    network, items, _ = build_network(
        num_nodes, workload=workload, topology=topology, domain_max=domain_max,
        seed=seed, telemetry=telemetry,
    )
    first_seed = seed * 1_000 if trial_seed is None else trial_seed
    successes = 0
    answers, rank_errors, value_errors, bits = [], [], [], []
    for trial in range(trials):
        network.reset_ledger()
        result = ApproximateOrderStatisticProtocol(
            epsilon=epsilon,
            quantile=quantile,
            num_registers=num_registers,
            repetition_policy=_policy(repetition_cap),
            sketch=sketch,
            seed=first_seed + trial,
        ).run(network)
        outcome = result.value
        successes += is_approximate_order_statistic(
            items,
            quantile * len(items),
            outcome.value,
            alpha=max(alpha_floor, outcome.alpha_guarantee),
            beta=beta_slack,
        )
        accuracy = median_accuracy(items, outcome.value, quantile)
        answers.append(outcome.value)
        rank_errors.append(accuracy.rank_error)
        value_errors.append(accuracy.value_error)
        bits.append(result.max_node_bits)
    return StudyResult(
        {
            "success_rate": successes / trials,
            "mean_answer": sum(answers) / trials,
            "mean_rank_error": sum(rank_errors) / trials,
            "mean_value_error": sum(value_errors) / trials,
            "mean_max_node_bits": sum(bits) / trials,
            "alpha_guarantee": outcome.alpha_guarantee,
            "beta_guarantee": outcome.beta_guarantee,
        }
    )


# --------------------------------------------------------------------------- #
# E6 — polyloglog median scaling (Theorem 4.7 / Corollary 4.8)
# --------------------------------------------------------------------------- #
def run_polyloglog_study(
    sizes: Sequence[int],
    beta: float = 1.0 / 16.0,
    epsilon: float = 0.25,
    num_registers: int = 64,
    repetition_cap: int | None = None,
    domain_max: int | None = None,
    topology: str = "grid",
    workload: str = "uniform",
    seed: int = 0,
    protocol_seed: int | None = None,
    telemetry=None,
) -> StudyResult:
    """E6: per-node bits and value error of APX_MEDIAN2 (Fig. 4) as N grows.

    Every rung also runs Fig. 1 on the same field (``exact_max_node_bits``),
    so sweeping ``domain_max`` — E6b — shows the mechanism behind
    Corollary 4.8: the deterministic protocol pays per value-bit, the
    length-domain protocol per length-bit.  With an explicit ``domain_max``
    both protocols are told the bound; without one the values are N² and
    APX_MEDIAN2 finds the range itself.
    """
    measures: dict = {}
    for size, network, items, domain in _ladder(
        sizes, workload=workload, topology=topology, domain_max=domain_max,
        seed=seed, telemetry=telemetry,
    ):
        exact = DeterministicMedianProtocol(domain_max=domain).run(network)
        network.reset_ledger()
        result = PolyloglogMedianProtocol(
            beta=beta,
            epsilon=epsilon,
            num_registers=num_registers,
            repetition_policy=_policy(repetition_cap),
            domain_max=domain_max,
            seed=seed if protocol_seed is None else protocol_seed,
        ).run(network)
        accuracy = median_accuracy(items, result.value.value)
        _rung(
            measures,
            size,
            **_cost(result),
            answer=result.value.value,
            reference=reference_median(items),
            value_error=accuracy.value_error,
            rank_error=accuracy.rank_error,
            stages=len(result.value.stages),
            exact_max_node_bits=exact.max_node_bits,
        )
    _fit_ladder(measures, sizes)
    return StudyResult(measures)


# --------------------------------------------------------------------------- #
# E7 — COUNT DISTINCT: exact vs approximate (Theorem 5.1)
# --------------------------------------------------------------------------- #
def run_count_distinct_study(
    sizes: Sequence[int],
    num_registers: int = 64,
    topology: str = "line",
    seed: int = 0,
    telemetry=None,
) -> StudyResult:
    """E7: exact (linear) versus approximate (loglog) distinct counting.

    Uses a line topology with all-distinct values — the shape of the
    Set-Disjointness embedding — so the linear traffic through the middle of
    the line is exactly the quantity Theorem 5.1 lower-bounds.
    """
    measures: dict = {}
    for size, network, items, domain in _ladder(
        sizes, workload="sequential", topology=topology, seed=seed, telemetry=telemetry
    ):
        true_distinct = len(set(items))
        exact = ExactDistinctCountProtocol(domain_max=domain).run(network)
        network.reset_ledger()
        approx = ApproxDistinctCountProtocol(
            num_registers=num_registers, seed=seed
        ).run(network)
        _rung(
            measures,
            size,
            **_cost(exact, "exact_"),
            **_cost(approx, "approx_"),
            true_distinct=true_distinct,
            exact_answer=exact.value,
            approx_answer=approx.value.estimate,
            approx_relative_error=abs(approx.value.estimate - true_distinct)
            / max(1, true_distinct),
        )
    _fit_ladder(measures, sizes, prefix="exact_")
    _fit_ladder(measures, sizes, prefix="approx_")
    return StudyResult(measures)


def run_disjointness_study(
    sizes: Sequence[int], seed: int = 1, telemetry=None
) -> StudyResult:
    """E7b: the Set-Disjointness reduction behind Theorem 5.1, run both ways.

    Each rung embeds two ``size / 2``-element sets in a line of ``size``
    nodes, once disjoint and once sharing a single element — the hardest
    case.  Driven by exact COUNT DISTINCT the reduction decides both
    instances and its traffic across the A/B cut grows linearly; driven by
    a 64-register LogLog protocol (within a 2% tolerance) the cut traffic
    stays flat — it escapes the lower bound precisely because a difference
    of one flips the answer it cannot see.  The reduction builds its own
    networks, so ``telemetry`` is accepted for the common call shape and
    records nothing.
    """
    measures: dict = {}
    for size in _checked(sizes):
        disjoint = make_disjoint_instance(size // 2, seed=seed)
        near = make_intersecting_instance(size // 2, overlap=1, seed=seed)
        exact = ExactDistinctCountProtocol()
        approx = ApproxDistinctCountProtocol(num_registers=64, seed=2)
        exact_disjoint = solve_disjointness_via_count_distinct(disjoint, exact)
        exact_near = solve_disjointness_via_count_distinct(near, exact)
        approx_near = solve_disjointness_via_count_distinct(
            near, approx, tolerance=0.02
        )
        _rung(
            measures,
            size,
            exact_decides=exact_disjoint.correct and exact_near.correct,
            exact_cut_bits=exact_disjoint.cut_bits,
            approx_decides=approx_near.correct,
            approx_cut_bits=approx_near.cut_bits,
        )
    return StudyResult(measures)


# --------------------------------------------------------------------------- #
# E8 — baseline comparison
# --------------------------------------------------------------------------- #
def run_baseline_comparison(
    sizes: Sequence[int],
    protocol: str = "fig1_median",
    apx_registers: int = 64,
    topology: str = "grid",
    workload: str = "uniform",
    seed: int = 0,
    telemetry=None,
) -> StudyResult:
    """E8: one median protocol — the paper's or a baseline — as N grows.

    Every ``protocol`` sees the same seeded inputs, so the cells of a sweep
    over it are the paper's Section 1 comparison, contender by contender.
    """
    measures: dict = {}
    for size, network, items, domain in _ladder(
        sizes, workload=workload, topology=topology, seed=seed, telemetry=telemetry
    ):
        contenders = {
            "fig1_median": DeterministicMedianProtocol(domain_max=domain),
            "fig2_apx_median": ApproximateMedianProtocol(
                epsilon=0.2, num_registers=apx_registers, seed=seed
            ),
            "fig4_apx_median2": PolyloglogMedianProtocol(
                beta=1.0 / 16.0, epsilon=0.25, num_registers=apx_registers, seed=seed
            ),
            "naive_ship_all": NaiveShipAllMedianProtocol(domain_max=domain),
            "sampling": SamplingMedianProtocol(sample_size=32, domain_max=domain),
            "gk_summary": GKMedianProtocol(epsilon=0.05, domain_max=domain),
            "qdigest": QDigestMedianProtocol(compression=32, domain_max=domain),
            "gossip": GossipMedianProtocol(seed=seed),
        }
        result = _named(contenders, "median protocol", protocol).run(network)
        outcome = result.value
        answer = getattr(outcome, "median", None)
        if answer is None:
            answer = getattr(outcome, "value", outcome)
        accuracy = median_accuracy(items, answer)
        _rung(
            measures,
            size,
            **_cost(result),
            answer=answer,
            exact=accuracy.exact,
            rank_error=accuracy.rank_error,
            value_error=accuracy.value_error,
        )
    _fit_ladder(measures, sizes)
    return StudyResult(measures)


# --------------------------------------------------------------------------- #
# E10–E14 — the streaming-era studies
# --------------------------------------------------------------------------- #
#: Readings of every streaming-era study lie in ``[0, STREAM_DOMAIN]``.
STREAM_DOMAIN = 1 << 16


def _below_mid() -> PredicateCountQuery:
    mid = STREAM_DOMAIN // 2
    return PredicateCountQuery(lambda item: item < mid, description=f"x < {mid}")


def _savings(baseline_bits: int, subject_bits: int) -> float:
    return round(baseline_bits / max(1, subject_bits), 4)


def _idle_network(num_nodes: int, topology, seed: int, **build) -> SensorNetwork:
    """A seeded network holding no readings yet — the stream fills them in."""
    network = SensorNetwork.from_items(
        [0] * num_nodes, topology=topology, seed=seed, **build
    )
    network.clear_items()
    return network


# --------------------------------------------------------------------------- #
# E10 — continuous queries: incremental vs per-epoch recomputation
# --------------------------------------------------------------------------- #
def _standing_queries(seed: int) -> dict[str, StandingQuery]:
    return {
        "count": CountQuery(),
        "median": MedianQuery(universe_size=STREAM_DOMAIN + 1, compression=256),
        "distinct": DistinctCountQuery(num_registers=64, salt=seed),
        "below_mid": _below_mid(),
    }


def run_streaming_comparison(
    num_nodes: int = 100,
    epochs: int = 50,
    workload: str = "drift",
    epsilon: float = 0.1,
    topology: str = "grid",
    seed: int = 0,
    telemetry=None,
) -> StudyResult:
    """Drive the incremental and naive engines through one identical stream.

    Both engines register the same four standing queries (COUNT, MEDIAN,
    COUNT DISTINCT, COUNTP) over networks with identical topology and
    readings; two same-seed stream instances guarantee identical inputs.  Per
    epoch the incremental answers are checked against the ground truth, so
    the returned maxima certify the ε-approximation empirically.  Traces:
    ``incremental`` and ``recompute``.
    """
    incremental_net = _idle_network(num_nodes, topology, seed, telemetry=telemetry)
    incremental = ContinuousQueryEngine(incremental_net, epsilon=epsilon)
    naive = RecomputeEngine(_idle_network(num_nodes, topology, seed))
    for engine in (incremental, naive):
        for name, query in _standing_queries(seed).items():
            engine.register(name, query)

    stream_a = make_stream(workload, num_nodes, max_value=STREAM_DOMAIN, seed=seed)
    stream_b = make_stream(workload, num_nodes, max_value=STREAM_DOMAIN, seed=seed)
    max_count_error = 0.0
    max_rank_error = 0.0
    count_scale = 1.0
    median_query = incremental.queries()["median"]
    for epoch in range(epochs):
        updates_a = stream_a.initial() if epoch == 0 else stream_a.step(epoch)
        updates_b = stream_b.initial() if epoch == 0 else stream_b.step(epoch)
        record = incremental.advance_epoch(updates_a)
        naive.advance_epoch(updates_b)
        items = incremental_net.all_items()
        if not items:
            continue
        true_count = len(items)
        count_scale = max(count_scale, float(true_count))
        max_count_error = max(
            max_count_error, abs(record.answers["count"] - true_count)
        )
        median_answer = record.answers["median"]
        if median_answer is not None:
            # Absolute rank error of the reported median, in items.
            median_rank = rank(items, median_answer) + 0.5 * sum(
                1 for item in items if item == median_answer
            )
            max_rank_error = max(max_rank_error, abs(median_rank - true_count / 2.0))

    return StudyResult(
        measures={
            "workload": workload,
            "num_nodes": num_nodes,
            "epochs": epochs,
            "epsilon": epsilon,
            "incremental_bits": incremental.trace.total_bits,
            "recompute_bits": naive.trace.total_bits,
            "savings_factor": _savings(
                naive.trace.total_bits, incremental.trace.total_bits
            ),
            "max_count_error": max_count_error,
            "max_median_rank_error": max_rank_error,
            "count_error_budget": epsilon * count_scale,
            "median_rank_error_budget": round(
                median_query.error_bound(epsilon, count_scale), 4
            ),
        },
        traces={"incremental": incremental.trace, "recompute": naive.trace},
    )


# --------------------------------------------------------------------------- #
# E11 — execution-path scaling: per-edge vs batched wall-clock
# --------------------------------------------------------------------------- #
def _scaling_workload(network: SensorNetwork) -> int:
    """One root-initiated round trip: a request broadcast plus a SUM convergecast."""
    broadcast(network, "sum-request", 32, protocol="scaling-request")
    return convergecast(
        network,
        local_values=network.item_columns.sums(),
        combine=add,
        size_bits=64,
        protocol="scaling-sum",
    )


def run_scaling_study(
    num_nodes: int,
    topology: str = "grid",
    per_edge_limit: int = 20_000,
    repeats: int = 1,
    seed: int = 0,
    telemetry=None,
) -> StudyResult:
    """E11: time the batched and per-edge execution paths at one size.

    One network is built and the same broadcast + SUM convergecast round
    trip is executed under both execution modes (best of ``repeats``),
    resetting the ledger and radio in between so both paths see identical
    randomness.  The resulting ledgers are compared field by field — the
    batched backend must be bit-for-bit indistinguishable from the per-edge
    reference.  Above ``per_edge_limit`` nodes only the batched path runs
    (the per-edge path becomes the bottleneck the study exists to show), so
    a sweep over ``n`` can include 100k-node fields.  The tree is a plain
    BFS tree (``degree_bound=None``) because the bounded-degree re-parenting
    heuristic, not the execution core, dominates build time at scale.

    The seconds and the speedup land in ``timing``; the ledger-identity
    verdict and the charged bits — the deterministic part — are the measures.
    """
    # Build the graph first: generators only approximate the requested size
    # (a grid rounds to the nearest square), and the items must match the
    # actual node count.
    links = build_links(topology, num_nodes, seed=seed)
    actual_nodes = links.num_nodes
    items = generate_workload(
        "uniform",
        actual_nodes,
        max_value=default_domain(min(actual_nodes, 4096)),
        seed=seed,
    )
    # Both execution modes run with the same telemetry hooks live, so the
    # relative comparison is unaffected by the instrumentation.
    network = SensorNetwork.from_items(
        items, topology=links, seed=seed, degree_bound=None, telemetry=telemetry
    )

    def timed(mode: str) -> tuple[float, object]:
        network.execution = mode
        best = math.inf
        snapshot = None
        for _ in range(max(1, repeats)):
            network.reset_ledger()
            started = time.perf_counter()
            _scaling_workload(network)
            best = min(best, time.perf_counter() - started)
            snapshot = network.ledger.snapshot()
        return best, snapshot

    batched_seconds, batched_snapshot = timed("batched")
    per_edge_seconds = speedup = ledgers_identical = None
    if num_nodes <= per_edge_limit:
        per_edge_seconds, per_edge_snapshot = timed("per-edge")
        speedup = per_edge_seconds / batched_seconds if batched_seconds else None
        ledgers_identical = per_edge_snapshot == batched_snapshot
    if telemetry is not None:
        nodes = str(network.num_nodes)
        telemetry.observe("scaling.batched_s", batched_seconds, nodes=nodes)
        if per_edge_seconds is not None:
            telemetry.observe("scaling.per_edge_s", per_edge_seconds, nodes=nodes)
    return StudyResult(
        measures={
            "num_nodes": network.num_nodes,
            "topology": topology,
            "tree_height": network.flat_tree.height,
            "total_bits": batched_snapshot.total_bits,
            "messages": batched_snapshot.messages,
            "ledgers_identical": ledgers_identical,
        },
        timing={
            "batched_seconds": batched_seconds,
            "per_edge_seconds": per_edge_seconds,
            "speedup": speedup,
        },
    )


# --------------------------------------------------------------------------- #
# E12 — fault tolerance: incremental repair + delta re-sync vs rebuild-and-
# recompute
# --------------------------------------------------------------------------- #
def _fault_arms(
    script_for,
    *,
    num_nodes: int,
    epochs: int,
    epsilon: float,
    topology: str,
    seed: int,
    detector_period: int | None,
    telemetry,
) -> dict[str, FaultTrace]:
    """Both arms of E12 / E13: one drifting stream survived two ways.

    Per repair strategy, builds graph → network → engine with COUNT and a
    COUNTP → fault engine (``TreeRepair(strategy=...)``, the scripted
    faults of ``script_for(network)``, an optional charged heartbeat
    detector) → drift stream, and runs it.  Everything but the strategy is
    equal, so the arms see identical topology, readings and faults.
    Returns the traces keyed ``incremental`` / ``rebuild``.
    """
    traces: dict[str, FaultTrace] = {}
    for strategy in ("incremental", "rebuild"):
        links = build_links(topology, num_nodes, seed=seed)
        network = _idle_network(links.num_nodes, links, seed, degree_bound=None)
        engine = ContinuousQueryEngine(network, epsilon=epsilon)
        engine.register("count", CountQuery())
        engine.register("below_mid", _below_mid())
        faults = FaultEngine(
            network,
            script=script_for(network),
            repair=TreeRepair(strategy=strategy),
            seed=seed,
            detector=detector_from_config(detector_period),
        )
        stream = make_stream(
            "drift", network.num_nodes, max_value=STREAM_DOMAIN, seed=seed, drift_fraction=0.02
        )
        traces[strategy] = run_faulty_stream(
            engine,
            stream,
            faults,
            epochs=epochs,
            telemetry=telemetry if strategy == "incremental" else None,
        )
    return traces


def run_fault_tolerance_study(
    num_nodes: int = 400,
    epochs: int = 8,
    scenario: str = "crash_storm",
    crash_fraction: float = 0.1,
    storm_epoch: int = 2,
    rejoin_epoch: int | None = 5,
    outage_radius: int = 3,
    epsilon: float = 0.1,
    topology: str = "random_geometric",
    seed: int = 0,
    detector_period: int | None = None,
    telemetry=None,
) -> StudyResult:
    """E12: measure what surviving faults costs under the two repair policies.

    Two identical networks run the same drifting stream with the same
    standing queries (COUNT and a COUNTP) under the same fault scenario; one
    arm repairs its spanning tree incrementally and re-synchronises only the
    summaries along repaired paths, the other rebuilds the BFS tree from
    scratch and recomputes every summary (the ``strategy="rebuild"``
    policy).  Off fault epochs the two arms behave identically, so the
    comparison is taken over the *fault-epoch* bits — the cost attributable
    to surviving the scenario — while answer accuracy is checked against the
    attached ground truth on every epoch for both arms.  Traces:
    ``incremental`` and ``rebuild``.

    ``detector_period`` switches both arms from the free oracle detector to
    a charged :class:`~repro.faults.HeartbeatDetector` with that sweep
    period: both repair policies then pay the same heartbeat bill
    (``detection_bits``) and see crashes with the same latency
    (``detection_latency``, at worst ``worst_case_latency`` epochs), so the
    repair-vs-rebuild gap is measured with its failure knowledge paid for.
    Sweeping the period is E12c (the ``e12c_heartbeat`` spec): longer
    periods pay fewer bits but answer from stale zombie summaries longer.
    """
    if scenario not in FAULT_SCENARIOS:
        raise ConfigurationError(
            f"fault_tolerance: unknown fault scenario {scenario!r}; "
            f"known: {FAULT_SCENARIOS}"
        )
    detector = detector_from_config(detector_period)

    def script_for(network: SensorNetwork):
        if scenario == "crash_storm":
            return crash_storm_script(
                network.node_ids(),
                epoch=storm_epoch,
                fraction=crash_fraction,
                seed=seed,
                rejoin_epoch=rejoin_epoch,
            )
        if scenario == "regional_outage":
            return regional_outage_script(
                network.links,
                epoch=storm_epoch,
                radius=outage_radius,
                seed=seed,
                rejoin_epoch=rejoin_epoch,
            )
        if scenario == "churn":
            return churn_script(
                network.node_ids(),
                epochs=max(1, epochs - 1),
                churn_rate=crash_fraction,
                start_epoch=1,
                seed=seed,
            )
        return link_storm_script(
            network.links,
            epoch=storm_epoch,
            fraction=crash_fraction,
            seed=seed,
            restore_epoch=rejoin_epoch,
        )

    traces = _fault_arms(
        script_for,
        num_nodes=num_nodes,
        epochs=epochs,
        epsilon=epsilon,
        topology=topology,
        seed=seed,
        detector_period=detector_period,
        telemetry=telemetry,
    )
    incremental = traces["incremental"]
    rebuild = traces["rebuild"]
    return StudyResult(
        measures={
            "scenario": scenario,
            "num_nodes": num_nodes,
            "epochs": epochs,
            "epsilon": epsilon,
            "incremental_fault_bits": incremental.fault_epoch_bits,
            "rebuild_fault_bits": rebuild.fault_epoch_bits,
            "savings_factor": _savings(
                rebuild.fault_epoch_bits, incremental.fault_epoch_bits
            ),
            "incremental_total_bits": incremental.total_bits,
            "rebuild_total_bits": rebuild.total_bits,
            "incremental_repair_bits": incremental.total_repair_bits,
            "rebuild_repair_bits": rebuild.total_repair_bits,
            "incremental_max_count_error": incremental.max_answer_error("count"),
            "rebuild_max_count_error": rebuild.max_answer_error("count"),
            "count_error_budget": epsilon * num_nodes,
            "incremental_rebuilds": incremental.rebuild_count,
            "rebuild_rebuilds": rebuild.rebuild_count,
            # Heartbeat traffic when a detector was charged (0 = oracle; both
            # arms pay the same) and the observed crash-to-detection gap.
            "detection_bits": incremental.total_detection_bits,
            "detection_latency": incremental.mean_detection_latency,
            "worst_case_latency": (
                0 if detector is None else detector.worst_case_latency()
            ),
            "detector_period": detector_period,
        },
        traces=traces,
    )


# --------------------------------------------------------------------------- #
# E13 — root fail-over: charged election + re-rooting vs rebuild-and-recompute
# --------------------------------------------------------------------------- #
def _decomposition_holds(trace: FaultTrace) -> bool:
    return all(
        record.total_bits
        == record.repair_bits
        + record.query_bits
        + record.detection_bits
        + record.election_bits
        for record in trace
    )


def _elected_root(trace: FaultTrace) -> int | None:
    """The root the run ended on: the winner of its last election."""
    winners = [record.new_root for record in trace if record.new_root is not None]
    return winners[-1] if winners else None


def run_root_failover_study(
    num_nodes: int = 400,
    epochs: int = 8,
    crash_epoch: int = 2,
    epsilon: float = 0.1,
    topology: str = "random_geometric",
    churn_rate: float = 0.0,
    seed: int = 0,
    detector_period: int | None = None,
    telemetry=None,
) -> StudyResult:
    """E13: what losing the query node costs, survived two ways.

    Two identical networks run the same drifting stream with the same
    standing queries (COUNT and a COUNTP, as in E12); at ``crash_epoch`` a
    scripted :class:`~repro.faults.RootCrash` kills the query node on both.
    Each arm pays the identical charged :class:`~repro.faults.RootElection`
    (``*_election_bits`` — candidate convergecast, winner flood, re-rooting
    flips; highest surviving id over the alive component).  The *failover*
    arm (trace ``incremental``) then re-roots the winner's fragment along
    the reversed root path, re-attaches the other fragments as units and
    migrates the summary caches, so only repaired paths retransmit; the
    ``rebuild`` arm floods a fresh BFS tree over every alive edge and
    recomputes every summary — the charged naive baseline the fail-over
    must not exceed.  ``attached_at_crash`` is the tree-attached population
    at the end of the crash epoch (the answerable survivors), and
    ``decomposition_holds`` certifies ``total_bits == repair_bits +
    query_bits + detection_bits + election_bits`` on every epoch of both
    arms.  ``churn_rate`` layers background membership churn underneath,
    and ``detector_period`` charges a heartbeat detector in both arms
    exactly as in E12.
    """
    if not 0 <= crash_epoch < epochs:
        raise ConfigurationError(
            f"root_failover: crash_epoch={crash_epoch} must fall inside the "
            f"run (0 <= crash_epoch < epochs={epochs})"
        )

    def script_for(network: SensorNetwork):
        return root_failover_script(
            network.node_ids(),
            crash_epoch=crash_epoch,
            epochs=epochs,
            churn_rate=churn_rate,
            seed=seed,
        )

    traces = _fault_arms(
        script_for,
        num_nodes=num_nodes,
        epochs=epochs,
        epsilon=epsilon,
        topology=topology,
        seed=seed,
        detector_period=detector_period,
        telemetry=telemetry,
    )
    failover = traces["incremental"]
    rebuild = traces["rebuild"]
    new_root = _elected_root(failover)
    if new_root != _elected_root(rebuild):
        raise ConfigurationError(
            "root_failover: the two arms elected different roots: "
            f"{new_root} vs {_elected_root(rebuild)}"
        )
    return StudyResult(
        measures={
            "num_nodes": num_nodes,
            "epochs": epochs,
            "crash_epoch": crash_epoch,
            "new_root": new_root,
            "attached_at_crash": failover[crash_epoch].attached,
            "failover_fault_bits": failover.fault_epoch_bits,
            "rebuild_fault_bits": rebuild.fault_epoch_bits,
            "savings_factor": _savings(
                rebuild.fault_epoch_bits, failover.fault_epoch_bits
            ),
            "failover_election_bits": failover.total_election_bits,
            "rebuild_election_bits": rebuild.total_election_bits,
            "failover_max_count_error": failover.max_answer_error("count"),
            "rebuild_max_count_error": rebuild.max_answer_error("count"),
            "count_error_budget": epsilon * num_nodes,
            "decomposition_holds": (
                _decomposition_holds(failover) and _decomposition_holds(rebuild)
            ),
        },
        traces=traces,
    )


# --------------------------------------------------------------------------- #
# E14 — multi-tenant standing queries: shared plan vs independent engines
# --------------------------------------------------------------------------- #
def _tenant_query_mix(
    tenants: int, seed: int
) -> list[tuple[str, str, "StandingQuery"]]:
    """A deterministic overlapping mix: Q tenants over four signatures.

    Tenants cycle through the four standing-query families of
    :func:`_standing_queries`; q-digest tenants additionally cycle their
    queried fraction (0.5 / 0.25 / 0.75), which shares the same leg —
    the fraction is excluded from the plan signature and resolved at the
    root — while exercising the per-tenant answer derivation.
    """
    base = _standing_queries(seed)
    kinds = list(base)
    fractions = (0.5, 0.25, 0.75)
    mix: list[tuple[str, str, StandingQuery]] = []
    for index in range(tenants):
        kind = kinds[index % len(kinds)]
        query = base[kind]
        if kind == "median":
            fraction = fractions[(index // len(kinds)) % len(fractions)]
            query = QuantileQuery(
                fraction, universe_size=STREAM_DOMAIN + 1, compression=256
            )
        mix.append((f"tenant{index:02d}", kind, query))
    return mix


def run_multitenant_study(
    num_nodes: int = 100,
    epochs: int = 20,
    tenants: int = 12,
    workload: str = "drift",
    epsilon: float = 0.1,
    topology: str = "grid",
    seed: int = 0,
    bits_budget: int | None = None,
    telemetry=None,
) -> StudyResult:
    """E14: Q overlapping standing queries, shared plan vs Q engines.

    The shared arm registers every tenant query on one
    :class:`~repro.tenancy.MultiTenantEngine`; the baseline runs one
    dedicated :class:`~repro.streaming.ContinuousQueryEngine` per admitted
    tenant over its own identically-built network and an identically-seeded
    stream.  Per epoch the study checks that every tenant's derived answer
    equals its dedicated engine's (``answers_match``: number-identical — the
    plan changes *who pays*, never *what is answered*) and that the tenant
    ledger columns keep summing exactly to the shared plan's charged bits
    (``decomposition_holds``).  ``legs`` is the number of distinct legs the
    planner actually runs (the dedup denominator); the headline measure is
    ``independent_bits / shared_bits``, which grows like Q over the number
    of distinct signatures.
    """
    if tenants <= 0:
        raise ConfigurationError(
            f"multitenant: tenants must be positive, got {tenants}"
        )
    mix = _tenant_query_mix(tenants, seed)

    shared_net = _idle_network(num_nodes, topology, seed, telemetry=telemetry)
    service = MultiTenantEngine(
        shared_net, epsilon=epsilon, bits_budget=bits_budget
    )
    decisions = {
        tenant: service.register(tenant, query_name, query)
        for tenant, query_name, query in mix
    }

    def stream():
        return make_stream(workload, num_nodes, max_value=STREAM_DOMAIN, seed=seed)

    # One dedicated (tenant, query name, engine, stream) per admitted tenant.
    dedicated = []
    for tenant, query_name, query in mix:
        if not decisions[tenant].admitted:
            continue
        engine = ContinuousQueryEngine(
            _idle_network(num_nodes, topology, seed), epsilon=epsilon
        )
        engine.register(query_name, query)
        dedicated.append((tenant, query_name, engine, stream()))

    shared_stream = stream()
    answers_match = True
    decomposition = True
    for epoch in range(epochs):
        updates = (
            shared_stream.initial() if epoch == 0 else shared_stream.step(epoch)
        )
        service.advance_epoch(updates)
        decomposition = decomposition and service.decomposition_holds()
        for tenant, name, engine, own in dedicated:
            engine.advance_epoch(own.initial() if epoch == 0 else own.step(epoch))
            if engine.answers().get(name) != service.tenant_answers(tenant).get(name):
                answers_match = False

    shared_bits = shared_net.ledger.total_bits
    independent_bits = sum(
        engine.network.ledger.total_bits for _, _, engine, _ in dedicated
    )
    statuses = [decision.status for decision in decisions.values()]
    return StudyResult(
        measures={
            "num_nodes": num_nodes,
            "epochs": epochs,
            "epsilon": epsilon,
            "workload": workload,
            "tenants": tenants,
            "legs": len(service.planner.legs()),
            "admitted": statuses.count("admitted"),
            "shared": statuses.count("shared"),
            "degraded": statuses.count("degraded"),
            "rejected": statuses.count("rejected"),
            "shared_bits": shared_bits,
            "independent_bits": independent_bits,
            "savings_factor": _savings(independent_bits, shared_bits),
            "answers_match": answers_match,
            "decomposition_holds": decomposition,
        },
    )
