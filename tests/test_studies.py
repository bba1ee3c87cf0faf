"""The E1–E14 studies: pinned measures, one call path, named errors.

Each study builds its ``measures`` once and is called the same way by sweep
cells, claim tests and tier-1 tests, so "the refactor kept every number" is
a checked statement, not prose.  The E10–E14 literals (``PINNED``) were
computed on commit 22743ae through that commit's ``run_*_cell`` wrappers
(and ``run_heartbeat_study`` for the E12c rows); the one key the wrappers
did not have is ``worst_case_latency`` (E12c's column, ``period - 1``).
The E1–E9 literals (``PINNED_SMOKE``) were computed on parent commit
42fc3c0 through that commit's ``run_*_sweep`` functions and inline bench
bodies — the parent call stands next to each — filed under the
``<column>_n<size>`` names the studies use now, with the fits rounded to
four places.  All must stay ``==``.  Four E1–E9 cells — ``e2_apx_count``,
``e5_apx_median``, ``e6b_domain_width`` and ``e9c_counting_sketch`` — were
re-pinned once when APX_COUNT's multiset draws became counter-based, from a
run on which the per-edge and batched paths agree.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import StudyResult, run_streaming_comparison
from repro.exceptions import ConfigurationError
from repro.sweeps import CELL_RUNNERS, SweepRunner, get_sweep, run_cell

FAULT_PARAMS = {
    "n": 48,
    "epochs": 6,
    "scenario": "crash_storm",
    "crash_fraction": 0.1,
    "epsilon": 0.1,
    "topology": "random_geometric",
    "seed": 0,
}

#: case -> (experiment kind, cell parameters, measures on 22743ae).
PINNED = {
    "streaming": (
        "streaming",
        {"n": 25, "epochs": 4, "workload": "drift", "epsilon": 0.1, "topology": "grid", "seed": 0},
        {
            "workload": "drift",
            "num_nodes": 25,
            "epochs": 4,
            "epsilon": 0.1,
            "incremental_bits": 12233,
            "recompute_bits": 46736,
            "savings_factor": 3.8205,
            "max_count_error": 0.0,
            "max_median_rank_error": 0.0,
            "count_error_budget": 2.5,
            "median_rank_error_budget": 4.1602,
        },
    ),
    "fault_tolerance_oracle": (
        "fault_tolerance",
        {**FAULT_PARAMS, "detector_period": None},
        {
            "scenario": "crash_storm",
            "num_nodes": 48,
            "epochs": 6,
            "epsilon": 0.1,
            "incremental_fault_bits": 685,
            "rebuild_fault_bits": 23912,
            "savings_factor": 34.908,
            "incremental_total_bits": 935,
            "rebuild_total_bits": 24162,
            "incremental_repair_bits": 528,
            "rebuild_repair_bits": 23440,
            "incremental_max_count_error": 0.0,
            "rebuild_max_count_error": 0.0,
            "count_error_budget": 4.800000000000001,
            "incremental_rebuilds": 0,
            "rebuild_rebuilds": 2,
            "detection_bits": 0,
            "detection_latency": 0.0,
            "worst_case_latency": 0,
            "detector_period": None,
        },
    ),
    "fault_tolerance_heartbeat": (
        "fault_tolerance",
        {**FAULT_PARAMS, "detector_period": 4},
        {
            "scenario": "crash_storm",
            "num_nodes": 48,
            "epochs": 6,
            "epsilon": 0.1,
            "incremental_fault_bits": 769,
            "rebuild_fault_bits": 23996,
            "savings_factor": 31.2042,
            "incremental_total_bits": 1113,
            "rebuild_total_bits": 24340,
            "incremental_repair_bits": 528,
            "rebuild_repair_bits": 23440,
            "incremental_max_count_error": 5.0,
            "rebuild_max_count_error": 5.0,
            "count_error_budget": 4.800000000000001,
            "incremental_rebuilds": 0,
            "rebuild_rebuilds": 2,
            "detection_bits": 178,
            "detection_latency": 2.0,
            "worst_case_latency": 3,
            "detector_period": 4,
        },
    ),
    "root_failover": (
        "root_failover",
        {"n": 64, "epochs": 5, "crash_epoch": 2, "topology": "grid", "seed": 0},
        {
            "num_nodes": 64,
            "epochs": 5,
            "crash_epoch": 2,
            "new_root": 63,
            "attached_at_crash": 63,
            "failover_fault_bits": 6026,
            "rebuild_fault_bits": 10762,
            "savings_factor": 1.7859,
            "failover_election_bits": 5680,
            "rebuild_election_bits": 5680,
            "failover_max_count_error": 0.0,
            "rebuild_max_count_error": 0.0,
            "count_error_budget": 6.4,
            "decomposition_holds": True,
        },
    ),
    "multitenant": (
        "multitenant",
        {
            "n": 36,
            "epochs": 4,
            "tenants": 6,
            "workload": "drift",
            "epsilon": 0.1,
            "topology": "grid",
            "seed": 0,
        },
        {
            "num_nodes": 36,
            "epochs": 4,
            "epsilon": 0.1,
            "workload": "drift",
            "tenants": 6,
            "legs": 4,
            "admitted": 4,
            "shared": 2,
            "degraded": 0,
            "rejected": 0,
            "shared_bits": 21614,
            "independent_bits": 28032,
            "savings_factor": 1.2969,
            "answers_match": True,
            "decomposition_holds": True,
        },
    ),
    "scaling": (
        "scaling",
        {"n": 100, "topology": "grid", "seed": 0},
        {
            "num_nodes": 100,
            "topology": "grid",
            "tree_height": 18,
            "total_bits": 9504,
            "messages": 198,
            "ledgers_identical": True,
        },
    ),
}

#: (spec, smoke cell id) -> measures on 42fc3c0: one cell per E1–E9 experiment
#: kind, and a second where a kind also serves another experiment's inputs.
PINNED_SMOKE = {
    # run_primitive_aggregates_sweep([16, 64, 144]) -> its AVG records
    ("e1_primitives", "aggregate=AVG"): {
        "max_node_bits_n16": 86, "total_bits_n16": 346, "messages_n16": 30, "rounds_n16": 12,
        "answer_n16": 140.5625,
        "max_node_bits_n64": 134, "total_bits_n64": 2170, "messages_n64": 126, "rounds_n64": 28,
        "answer_n64": 2113.125,
        "max_node_bits_n144": 162, "total_bits_n144": 5870, "messages_n144": 286,
        "rounds_n144": 44, "answer_n144": 10759.263888888889,
        "bits_growth_exponent": 0.2916, "bits_model_ratio_spread": 1.0509,
    },
    # run_apx_count_sweep([64, 256], register_counts=[16, 64, 256], trials=5) -> m=64 records
    ("e2_apx_count", "num_registers=64"): {
        "max_node_bits_n64": 870, "total_bits_n64": 18270, "messages_n64": 126, "rounds_n64": 28,
        "answer_n64": 62.773072192750476, "mean_relative_error_n64": 0.048372676796123185,
        "predicted_sigma_n64": 0.1625,
        "max_node_bits_n256": 870, "total_bits_n256": 73950, "messages_n256": 510,
        "rounds_n256": 60, "answer_n256": 298.73909050257896,
        "mean_relative_error_n256": 0.16754720642644588, "predicted_sigma_n256": 0.1625,
        "bits_growth_exponent": 0.0,
    },
    # run_exact_median_sweep([36, 64, 144]); tree_* read off the same seeded network
    ("e3_exact_median", "seed=0"): {
        "max_node_bits_n36": 915, "total_bits_n36": 8857, "messages_n36": 1050, "rounds_n36": 300,
        "answer_n36": 724, "reference_n36": 724, "exact_n36": True, "probes_n36": 12,
        "domain_max_n36": 1296, "tree_degree_n36": 3, "tree_height_n36": 10,
        "max_node_bits_n64": 1115, "total_bits_n64": 19377, "messages_n64": 2016,
        "rounds_n64": 448, "answer_n64": 2121, "reference_n64": 2121, "exact_n64": True,
        "probes_n64": 13, "domain_max_n64": 4096, "tree_degree_n64": 3, "tree_height_n64": 14,
        "max_node_bits_n144": 1463, "total_bits_n144": 56435, "messages_n144": 5148,
        "rounds_n144": 792, "answer_n144": 10388, "reference_n144": 10388, "exact_n144": True,
        "probes_n144": 15, "domain_max_n144": 20736, "tree_degree_n144": 3,
        "tree_height_n144": 22,
        "bits_growth_exponent": 0.3383, "bits_model_ratio_spread": 1.2029,
    },
    # run_order_statistic_sweep(100, quantiles=(0.25,))
    ("e4_order_statistics", "quantile=0.25"): {
        "max_node_bits_n100": 1298, "total_bits_n100": 34592, "messages_n100": 3564,
        "rounds_n100": 648, "answer_n100": 2407, "reference_n100": 2407, "exact_n100": True,
        "probes_n100": 15, "domain_max_n100": 10000, "tree_degree_n100": 3,
        "tree_height_n100": 18,
    },
    # run_degree_bound_ablation(64, degree_bounds=(None,), topology="single_hop"); probes
    # from the same DeterministicMedianProtocol run
    ("e9b_degree_bound", "degree_bound=none"): {
        "max_node_bits_n64": 17325, "total_bits_n64": 17325, "messages_n64": 2016,
        "rounds_n64": 32, "answer_n64": 2121, "reference_n64": 2121, "exact_n64": True,
        "probes_n64": 13, "domain_max_n64": 4096, "tree_degree_n64": 63, "tree_height_n64": 1,
    },
    # run_apx_median_trials(64, trials=4, epsilon=0.2, num_registers=64, seed=3);
    # mean_answer from the same four protocol runs
    ("e5_apx_median", "num_registers=64"): {
        "success_rate": 1.0, "mean_answer": 2080.0, "mean_rank_error": 0.0625,
        "mean_value_error": 0.010853478046373951, "mean_max_node_bits": 20548.0,
        "alpha_guarantee": 0.48750000000000004, "beta_guarantee": 0.014888580237415606,
    },
    # bench_ablations.test_counting_sketch_choice body at N = 64, 3 trials (seeds 300 + t)
    ("e9c_counting_sketch", "sketch=hyperloglog"): {
        "success_rate": 1.0, "mean_answer": 24620.0, "mean_rank_error": 0.0625,
        "mean_value_error": 0.05006544502617801, "mean_max_node_bits": 20680.0,
        "alpha_guarantee": 0.39, "beta_guarantee": 0.014494371494698675,
    },
    # bench_apx_median2.test_domain_width_sensitivity_and_crossover body at N = 36, X = 2^10 - 1
    ("e6b_domain_width", "domain_max=1023"): {
        "max_node_bits_n36": 12813, "total_bits_n36": 149109, "messages_n36": 2730,
        "rounds_n36": 780, "answer_n36": 414, "reference_n36": 506,
        "value_error_n36": 0.09081934846989141, "rank_error_n36": 0.2222222222222222,
        "stages_n36": 3, "exact_max_node_bits_n36": 713,
    },
    # run_count_distinct_sweep([32, 128])
    ("e7_count_distinct", "seed=0"): {
        "exact_max_node_bits_n32": 697, "exact_total_bits_n32": 5807, "exact_messages_n32": 62,
        "exact_rounds_n32": 62, "approx_max_node_bits_n32": 836, "approx_total_bits_n32": 12958,
        "approx_messages_n32": 62, "approx_rounds_n32": 62, "true_distinct_n32": 32,
        "exact_answer_n32": 32, "approx_answer_n32": 33.36300311253031,
        "approx_relative_error_n32": 0.042593847266572116,
        "exact_max_node_bits_n128": 3829, "exact_total_bits_n128": 123839,
        "exact_messages_n128": 254, "exact_rounds_n128": 254, "approx_max_node_bits_n128": 836,
        "approx_total_bits_n128": 53086, "approx_messages_n128": 254, "approx_rounds_n128": 254,
        "true_distinct_n128": 128, "exact_answer_n128": 128,
        "approx_answer_n128": 107.13449174858698,
        "approx_relative_error_n128": 0.1630117832141642,
        "exact_bits_growth_exponent": 1.2289, "approx_bits_growth_exponent": 0.0,
    },
    # bench_count_distinct.test_disjointness_reduction body at set sizes 32 and 512
    ("e7b_disjointness", "seed=1"): {
        "exact_decides_n64": True, "exact_cut_bits_n64": 723, "approx_decides_n64": False,
        "approx_cut_bits_n64": 836,
        "exact_decides_n1024": True, "exact_cut_bits_n1024": 19715, "approx_decides_n1024": True,
        "approx_cut_bits_n1024": 836,
    },
    # run_baseline_comparison([64, 256], apx_registers=32) -> its "GK summary" records
    ("e8_baselines", "protocol=gk_summary"): {
        "max_node_bits_n64": 3105, "total_bits_n64": 14082, "messages_n64": 252, "rounds_n64": 56,
        "answer_n64": 2121.0, "exact_n64": True, "rank_error_n64": 0.015625,
        "value_error_n64": 0.0,
        "max_node_bits_n256": 4849, "total_bits_n256": 104686, "messages_n256": 1020,
        "rounds_n256": 120, "answer_n256": 31380.0, "exact_n256": False,
        "rank_error_n256": 0.01953125, "value_error_n256": 0.032996529116853066,
        "bits_growth_exponent": 0.3215,
    },
}

#: ``run_heartbeat_study(periods=(1, 2, 4, 8), num_nodes=64, epochs=12)`` on
#: 22743ae, as (period, detection_bits, mean_latency, worst_case_latency,
#: max_count_error, fault_epoch_bits, savings_factor rounded as a cell does).
HEARTBEAT_ROWS = [
    (None, 0, 0.0, 0, 0.0, 389, 91.2699),
    (1, 1428, 0.0, 0, 0.0, 617, 57.9125),
    (2, 720, 1.0, 1, 6.0, 503, 70.8111),
    (4, 354, 1.0, 3, 6.0, 503, 70.8111),
    (8, 240, 5.0, 7, 6.0, 503, 70.8111),
]


def smoke_cell(spec_name, cell_id):
    (cell,) = (
        cell for cell in get_sweep(spec_name, smoke=True).expand() if cell.cell_id == cell_id
    )
    return cell


ONE_SHOT_KINDS = sorted({smoke_cell(*case).experiment for case in PINNED_SMOKE})


class TestPinnedMeasures:
    @staticmethod
    def check(experiment, params, expected):
        result = run_cell(experiment, params)
        assert result["measures"] == expected
        # Same seed, same numbers — and the whole cell survives the cache's
        # JSON round trip unchanged.
        assert run_cell(experiment, params)["measures"] == expected
        assert json.loads(json.dumps(result)) == result

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_cell_reports_the_parent_commits_measures(self, case):
        self.check(*PINNED[case])

    @pytest.mark.parametrize("spec_name, cell_id", sorted(PINNED_SMOKE))
    def test_smoke_cell_reports_the_parent_commits_measures(self, spec_name, cell_id):
        cell = smoke_cell(spec_name, cell_id)
        self.check(cell.experiment, cell.params, PINNED_SMOKE[spec_name, cell_id])

    def test_every_experiment_kind_is_pinned(self):
        pinned = {experiment for experiment, _, _ in PINNED.values()}
        assert pinned | set(ONE_SHOT_KINDS) == set(CELL_RUNNERS)

    def test_cell_and_direct_call_are_the_same_function(self):
        """A cell is the study's own ``measures``; traces back the totals."""
        result = run_streaming_comparison(
            num_nodes=25, epochs=4, workload="drift", epsilon=0.1, topology="grid", seed=0
        )
        assert isinstance(result, StudyResult)
        assert result.measures == PINNED["streaming"][2]
        assert (
            result.traces["incremental"].total_bits
            == result.measures["incremental_bits"]
        )
        assert result.traces["recompute"].total_bits == result.measures["recompute_bits"]

    def test_e12c_heartbeat_smoke_reproduces_run_heartbeat_study(self, tmp_path):
        """E12c is an axis of the fault-tolerance study, serial or forked."""
        spec = get_sweep("e12c_heartbeat", smoke=True)
        serial = SweepRunner(spec, cache_dir=tmp_path / "serial", processes=0).run()
        forked = SweepRunner(spec, cache_dir=tmp_path / "forked", processes=2).run()
        assert serial.executed == forked.executed == len(HEARTBEAT_ROWS)
        measures = [outcome.result["measures"] for outcome in serial.outcomes]
        assert [outcome.result["measures"] for outcome in forked.outcomes] == measures
        rows = [
            (
                cell["detector_period"],
                cell["detection_bits"],
                cell["detection_latency"],
                cell["worst_case_latency"],
                cell["incremental_max_count_error"],
                cell["incremental_fault_bits"],
                cell["savings_factor"],
            )
            for cell in measures
        ]
        assert rows == HEARTBEAT_ROWS


class TestMalformedParameters:
    """Bad study parameters are named errors, raised before any network."""

    def test_missing_required_key_names_study_and_key(self):
        with pytest.raises(ConfigurationError, match="scaling.*num_nodes"):
            run_cell("scaling", {})

    @pytest.mark.parametrize("experiment", ["streaming", "multitenant", "fault_tolerance"])
    def test_misspelt_key_names_study_and_key(self, experiment):
        with pytest.raises(ConfigurationError, match=f"{experiment}.*epocs"):
            run_cell(experiment, {"n": 16, "epocs": 3})

    @pytest.mark.parametrize("experiment", ONE_SHOT_KINDS)
    def test_one_shot_kinds_reject_empty_and_misspelt_parameters(self, experiment):
        size = {"n": 16} if experiment == "apx_median" else {"sizes": (16,)}
        with pytest.raises(ConfigurationError, match=f"{experiment}.*missing a required"):
            run_cell(experiment, {})
        with pytest.raises(ConfigurationError, match=f"{experiment}.*'sed'"):
            run_cell(experiment, {**size, "sed": 0})
        if "sizes" in size:
            with pytest.raises(ConfigurationError, match="at least one size"):
                run_cell(experiment, {"sizes": ()})
        if experiment in ("apx_median", "apx_count"):
            with pytest.raises(ConfigurationError, match="at least one trial"):
                run_cell(experiment, {**size, "trials": 0})

    def test_n_and_num_nodes_together_are_rejected(self):
        with pytest.raises(ConfigurationError, match="either 'n' or 'num_nodes'"):
            run_cell("streaming", {"n": 16, "num_nodes": 16})

    def test_root_crash_outside_the_run_is_rejected_up_front(self):
        from repro.analysis.experiments import run_root_failover_study

        with pytest.raises(ConfigurationError, match="root_failover.*crash_epoch=5"):
            run_root_failover_study(num_nodes=25, epochs=3, crash_epoch=5)
