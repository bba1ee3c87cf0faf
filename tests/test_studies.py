"""The E10–E14 studies: pinned measures, one call path, named errors.

Each study builds its ``measures`` once and is called the same way by sweep
cells, claim benches and tests, so "the refactor kept every number" is a
checked statement, not prose: every literal below was computed on parent
commit 22743ae through that commit's ``run_*_cell`` wrappers (and
``run_heartbeat_study`` for the E12c rows) and must stay ``==``.  The one
key the wrappers did not have is ``worst_case_latency`` (E12c's column,
``period - 1``), which the fault-tolerance study now reports itself.
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


class TestPinnedMeasures:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_cell_reports_the_parent_commits_measures(self, case):
        experiment, params, expected = PINNED[case]
        result = run_cell(experiment, params)
        assert result["measures"] == expected
        # Same seed, same numbers — and the whole cell survives the cache's
        # JSON round trip unchanged.
        assert run_cell(experiment, params)["measures"] == expected
        assert json.loads(json.dumps(result)) == result

    def test_every_experiment_kind_is_pinned(self):
        assert {experiment for experiment, _, _ in PINNED.values()} == set(CELL_RUNNERS)

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

    def test_n_and_num_nodes_together_are_rejected(self):
        with pytest.raises(ConfigurationError, match="either 'n' or 'num_nodes'"):
            run_cell("streaming", {"n": 16, "num_nodes": 16})

    def test_root_crash_outside_the_run_is_rejected_up_front(self):
        from repro.analysis.experiments import run_root_failover_study

        with pytest.raises(ConfigurationError, match="root_failover.*crash_epoch=5"):
            run_root_failover_study(num_nodes=25, epochs=3, crash_epoch=5)
