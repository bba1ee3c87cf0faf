"""Every bits claim of the paper and the README, asserted once over a sweep payload.

Each test runs a builtin sweep spec (``repro.sweeps.specs``) at its full
parameter set — the sizes README quotes — or, under ``--smoke``, at its CI
set, and asserts over ``cells[*].params`` / ``cells[*].measures`` in plain
Python.  Nothing is printed or written here: ``scripts/sweep.py report
SWEEP_<name>.json`` renders a payload as its table, and the cells land in
the sweep cache, so ``scripts/sweep.py run <spec> [--smoke] --expect-cached``
afterwards writes the ``SWEEP_<name>.json`` artifacts without re-running
anything.  Wall-clock claims live in ``benchmarks/perf`` and
``benchmarks/test_paths.py``.
"""

from __future__ import annotations

import functools

from repro.sweeps import SweepRunner, bind_cell, get_sweep
from repro.telemetry import CostAttribution, FlightRecorder, SpanTracer, diagnose


@functools.lru_cache(maxsize=None)
def cells(name: str, smoke: bool) -> list[dict]:
    """The payload cells of one fresh run of a builtin spec (once per session).

    ``force=True``: a claim is about the code in this checkout, never about
    a cached result of some earlier one.
    """
    return SweepRunner(get_sweep(name, smoke=smoke)).run(force=True).payload()["cells"]


def by(axis: str, payload_cells: list[dict]) -> dict:
    """Index a payload's measures by one axis value."""
    return {cell["params"][axis]: cell["measures"] for cell in payload_cells}


def ladder(cell: dict, column: str) -> list:
    """One per-size column of a one-shot study, in ladder order."""
    return [cell["measures"][f"{column}_n{size}"] for size in cell["params"]["sizes"]]


def study(name: str, smoke: bool, cell_id: str, **extra):
    """Call one cell's study directly, for what a payload does not carry
    (epoch traces, a caller-owned tracer)."""
    (cell,) = (c for c in get_sweep(name, smoke=smoke).expand() if c.cell_id == cell_id)
    return bind_cell(cell.experiment, cell.params, **extra)()


# --------------------------------------------------------------------------- #
# E1–E2 — Facts 2.1 / 2.2
# --------------------------------------------------------------------------- #
def test_e1_aggregates_cost_polylog_bits_per_node(smoke):
    """Fact 2.1: MIN / MAX / COUNT / SUM / AVG grow nowhere near linearly."""
    for cell in cells("e1_primitives", smoke):
        assert cell["measures"]["bits_growth_exponent"] < 0.6, cell["cell_id"]


def test_e1b_no_topology_is_far_worse_than_the_best(smoke):
    """With a bounded-degree tree no topology costs > 5x the best one."""
    worst = {}
    for cell in cells("e1b_topologies", smoke):
        topology = cell["params"]["topology"]
        worst[topology] = max(worst.get(topology, 0), *ladder(cell, "max_node_bits"))
    assert max(worst.values()) <= 5 * min(worst.values())


def test_e2_apx_count_error_tracks_the_predicted_sigma(smoke):
    """Fact 2.2 (a): relative error within a small multiple of 1.30/sqrt(m)."""
    for cell in cells("e2_apx_count", smoke):
        for error, sigma in zip(
            ladder(cell, "mean_relative_error"), ladder(cell, "predicted_sigma")
        ):
            assert error < 4 * sigma + 0.05, cell["cell_id"]


def test_e2_apx_count_cost_is_flat_in_n_and_linear_in_m(smoke):
    """Fact 2.2 (b, c): O(m log log N) bits — flat in N, proportional to m,
    and the larger sketch is the more accurate one."""
    payload = cells("e2_apx_count", smoke)
    for cell in payload:
        costs = ladder(cell, "max_node_bits")
        assert max(costs) <= 1.3 * min(costs), cell["cell_id"]
    small, large = (
        next(cell for cell in payload if cell["params"]["num_registers"] == m)
        for m in (16, 256)
    )
    assert ladder(large, "max_node_bits")[0] > 5 * ladder(small, "max_node_bits")[0]
    errors_small = ladder(small, "mean_relative_error")
    errors_large = ladder(large, "mean_relative_error")
    assert sum(errors_large) / len(errors_large) <= sum(errors_small) / len(errors_small) + 0.02


# --------------------------------------------------------------------------- #
# E3–E4 — Theorem 3.2, Section 3.4
# --------------------------------------------------------------------------- #
def test_e3_exact_median_is_exact_at_log_squared_bits(smoke):
    """Theorem 3.2: always exact, far from linear, tracked by (log N)^2."""
    (cell,) = cells("e3_exact_median", smoke)
    assert all(ladder(cell, "exact"))
    assert cell["measures"]["bits_growth_exponent"] < 0.5
    assert cell["measures"]["bits_model_ratio_spread"] < 3.0


def test_e3b_worst_case_bound_is_input_independent(smoke):
    payload = cells("e3b_workloads", smoke)
    assert all(exact for cell in payload for exact in ladder(cell, "exact"))
    costs = [bits for cell in payload for bits in ladder(cell, "max_node_bits")]
    assert max(costs) <= 2 * min(costs)


def test_e4_any_rank_costs_what_the_median_costs(smoke):
    """Section 3.4: every quantile exact, cost flat across the rank range."""
    payload = cells("e4_order_statistics", smoke)
    for cell in payload:
        assert ladder(cell, "exact") == [True], cell["cell_id"]
        assert ladder(cell, "answer") == ladder(cell, "reference"), cell["cell_id"]
    costs = [bits for cell in payload for bits in ladder(cell, "max_node_bits")]
    assert max(costs) <= 1.5 * min(costs)


# --------------------------------------------------------------------------- #
# E5–E6 — Theorems 4.5–4.7
# --------------------------------------------------------------------------- #
def test_e5_apx_median_succeeds_with_probability_one_minus_epsilon(smoke):
    """Theorem 4.5 (ε = 0.2, slack for the practical repetition policy), and a
    larger sketch gives a tighter rank error."""
    payload = cells("e5_apx_median", smoke)
    for cell in payload:
        assert cell["measures"]["success_rate"] >= 1 - 0.2 - 0.1, cell["cell_id"]
    errors = by("num_registers", payload)
    assert errors[256]["mean_rank_error"] <= errors[64]["mean_rank_error"] + 0.02


def test_e5b_apx_order_statistics_across_ranks(smoke):
    """Theorem 4.6: at most one of the swept ranks misses its (α, β) window."""
    payload = cells("e5b_apx_order_statistics", smoke)
    assert sum(cell["measures"]["success_rate"] for cell in payload) >= len(payload) - 1


def test_e6_polyloglog_median_is_flat_in_n_and_beta_precise(smoke):
    """Corollary 4.8: the only N-dependence is log log N; value error ~ β."""
    (cell,) = cells("e6_polyloglog", smoke)
    costs = ladder(cell, "max_node_bits")
    assert cell["measures"]["bits_growth_exponent"] < 0.2
    assert max(costs) <= 1.5 * min(costs)
    errors = sorted(ladder(cell, "value_error"))
    assert errors[len(errors) // 2] <= 2 * cell["params"]["beta"] + 0.02


def test_e6b_value_width_inflates_fig1_more_than_fig4(smoke):
    """Fig. 1 pays per value-bit, Fig. 4 per length-bit (10 -> 30 bit values)."""
    narrow, *_, wide = sorted(
        cells("e6b_domain_width", smoke), key=lambda cell: cell["params"]["domain_max"]
    )
    growth = {
        column: ladder(wide, column)[0] / ladder(narrow, column)[0]
        for column in ("exact_max_node_bits", "max_node_bits")
    }
    assert growth["exact_max_node_bits"] > growth["max_node_bits"]


# --------------------------------------------------------------------------- #
# E7 — Theorem 5.1
# --------------------------------------------------------------------------- #
def test_e7_exact_count_distinct_is_linear_approximate_is_flat(smoke):
    (cell,) = cells("e7_count_distinct", smoke)
    assert cell["measures"]["exact_bits_growth_exponent"] > 0.8
    assert cell["measures"]["approx_bits_growth_exponent"] < 0.2
    assert ladder(cell, "exact_answer") == ladder(cell, "true_distinct")


def test_e7b_only_the_exact_protocol_decides_disjointness(smoke):
    """The reduction: exact decides 2SD with cut traffic linear in n; LogLog's
    cut traffic stays flat because it cannot see a difference of one."""
    (cell,) = cells("e7b_disjointness", smoke)
    assert all(ladder(cell, "exact_decides"))
    exact_cut, approx_cut = ladder(cell, "exact_cut_bits"), ladder(cell, "approx_cut_bits")
    assert exact_cut[-1] > 8 * exact_cut[0]
    assert max(approx_cut) <= 1.3 * min(approx_cut)


# --------------------------------------------------------------------------- #
# E8–E9 — the Section 1 comparison and the ablations
# --------------------------------------------------------------------------- #
def test_e8_who_wins_as_n_grows(smoke):
    """Only ship-all is linear; Fig. 1 is exact and beats its hot node; every
    approximate contender stays within a moderate rank error."""
    contenders = {cell["params"]["protocol"]: cell for cell in cells("e8_baselines", smoke)}
    exponent = {name: cell["measures"]["bits_growth_exponent"] for name, cell in contenders.items()}
    assert exponent["naive_ship_all"] > 0.7
    assert exponent["fig1_median"] < 0.4
    assert exponent["fig4_apx_median2"] < 0.3
    assert all(ladder(contenders["fig1_median"], "exact"))
    fig1_bits = ladder(contenders["fig1_median"], "max_node_bits")
    naive_bits = ladder(contenders["naive_ship_all"], "max_node_bits")
    assert fig1_bits[-1] < naive_bits[-1] / 3
    for protocol, cell in contenders.items():
        if protocol not in ("fig1_median", "naive_ship_all"):
            assert max(ladder(cell, "rank_error")) < 0.45, protocol


def test_e9a_repetition_cap_buys_accuracy_with_bits(smoke):
    caps = by("repetition_cap", cells("e9a_repetition_cap", smoke))
    assert caps[8]["mean_max_node_bits"] > 2 * caps[1]["mean_max_node_bits"]
    assert caps[8]["mean_rank_error"] <= caps[1]["mean_rank_error"] + 0.05


def test_e9b_bounded_degree_tree_shields_the_hub(smoke):
    """The remark after Fact 2.1, on a single-hop clique."""
    bounds = {
        cell["params"]["degree_bound"]: ladder(cell, "max_node_bits")[0]
        for cell in cells("e9b_degree_bound", smoke)
    }
    assert bounds[3] < bounds[None] / 4


def test_e9c_either_counting_sketch_serves_theorem_4_5(smoke):
    for cell in cells("e9c_counting_sketch", smoke):
        assert cell["measures"]["success_rate"] >= 0.6, cell["cell_id"]


# --------------------------------------------------------------------------- #
# E10 — continuous queries
# --------------------------------------------------------------------------- #
def test_e10_incremental_engine_ships_5x_fewer_bits(smoke):
    """README: >= 5x fewer total bits at the same ε-approximation guarantee."""
    for cell in cells("e10_streaming", smoke):
        measures = cell["measures"]
        assert measures["savings_factor"] >= 5.0, cell["cell_id"]
        assert measures["max_count_error"] <= measures["count_error_budget"]
        assert (
            measures["max_median_rank_error"] <= measures["median_rank_error_budget"] + 0.5
        )


def test_e10_steady_state_ships_deltas_not_summaries(smoke):
    """Epoch 0 ships full summaries, later epochs only deltas; both engines
    end on the same COUNT.  Epoch rows are traces, not measures."""
    traces = study("e10_streaming", smoke, "seed=0,workload=drift").traces
    incremental, recompute = traces["incremental"], traces["recompute"]
    assert incremental.steady_state_bits(warmup=1) < incremental[0].bits / 5
    assert incremental[-1].answers["count"] == recompute[-1].answers["count"]


def test_e10b_savings_hold_across_stream_dynamics(smoke):
    """Burst and churn amortise like drift; seasonal (dense change) still wins."""
    dynamics = by("workload", cells("e10b_dynamics", smoke))
    for measures in dynamics.values():
        assert measures["max_count_error"] <= max(1.0, measures["count_error_budget"])
    assert dynamics["burst"]["savings_factor"] >= 5.0
    assert dynamics["churn"]["savings_factor"] >= 5.0
    assert dynamics["seasonal"]["savings_factor"] >= 1.1


# --------------------------------------------------------------------------- #
# E12–E13 — fault tolerance, charged detection, root fail-over
# --------------------------------------------------------------------------- #
def test_e12_incremental_repair_beats_rebuild_by_5x(smoke):
    """README: >= 5x fewer fault-epoch bits under every scenario, oracle or
    charged detector — and with an oracle detector, never at the price of a
    COUNT outside the ε budget in either arm."""
    for cell in cells("e12_fault_tolerance", smoke):
        measures = cell["measures"]
        assert measures["savings_factor"] >= 5.0, cell["cell_id"]
        if cell["params"]["detector_period"] is None:
            budget = measures["count_error_budget"]
            assert measures["incremental_max_count_error"] <= budget, cell["cell_id"]
            assert measures["rebuild_max_count_error"] <= budget, cell["cell_id"]


def test_e12_crash_storm_never_trips_the_rebuild_fallback(smoke):
    """The incremental arm stays incremental; the naive arm rebuilds at the
    storm and at the rejoin."""
    for cell in cells("e12_fault_tolerance", smoke):
        if cell["params"]["scenario"] == "crash_storm":
            assert cell["measures"]["incremental_rebuilds"] == 0
            assert cell["measures"]["rebuild_rebuilds"] >= 2


def test_e12_storm_epochs_are_explainable(smoke):
    """Every epoch the detector flags walks back to a recorded cause."""
    tracer = SpanTracer(flight=FlightRecorder(), attribution=CostAttribution())
    study(
        "e12_fault_tolerance",
        smoke,
        "detector_period=none,scenario=crash_storm,seed=0",
        telemetry=tracer,
    )
    diagnosis = diagnose(list(tracer.iter_dicts()))
    assert not diagnosis.unattributed, [a.render() for a in diagnosis.unattributed]


def test_e12c_heartbeat_detection_pays_for_failure_knowledge(smoke):
    """Charged detection keeps the >= 5x repair gap; longer periods pay fewer
    heartbeat bits at the price of real latency and stale answers."""
    periods = by("detector_period", cells("e12c_heartbeat", smoke))
    oracle = periods.pop(None)
    assert oracle["detection_bits"] == 0
    charged = [periods[period] for period in sorted(periods)]
    for measures in charged:
        assert measures["detection_bits"] > 0
        assert measures["savings_factor"] >= 5.0
    bits = [measures["detection_bits"] for measures in charged]
    assert bits == sorted(bits, reverse=True)
    instant, *delayed = charged
    assert instant["detection_latency"] == 0.0
    assert all(measures["detection_latency"] > 0 for measures in delayed)
    assert max(measures["incremental_max_count_error"] for measures in delayed) > 0


def test_e13_root_failover_never_costs_more_than_charged_rebuild(smoke):
    """Both arms pay the same election; the fail-over epoch bill never exceeds
    rebuild-and-recompute, fully accounted and within the ε budget."""
    for cell in cells("e13_root_failover", smoke):
        measures = cell["measures"]
        assert measures["decomposition_holds"]
        assert measures["failover_election_bits"] > 0
        assert measures["failover_election_bits"] == measures["rebuild_election_bits"]
        assert measures["failover_fault_bits"] <= measures["rebuild_fault_bits"]
        assert measures["failover_max_count_error"] <= measures["count_error_budget"]
        assert measures["rebuild_max_count_error"] <= measures["count_error_budget"]


# --------------------------------------------------------------------------- #
# E14 — multi-tenant dedup
# --------------------------------------------------------------------------- #
def test_e14_shared_plan_beats_32_independent_engines_by_5x(smoke):
    """README: Q = 32 overlapping queries cost >= 5x less than Q engines, with
    no tenant able to tell the difference from its answers.  The 5x floor is
    a Q = 32 claim (savings grow with Q), so the 8- and 16-tenant cells are
    checked for correctness and dedup only."""
    for cell in cells("e14_multitenant", smoke):
        measures = cell["measures"]
        if measures["tenants"] == 32:
            assert measures["savings_factor"] >= 5.0, cell["cell_id"]
        assert measures["answers_match"]
        assert measures["decomposition_holds"]
        assert measures["legs"] < measures["tenants"]
