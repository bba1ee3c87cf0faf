"""The sweep harness: expansion, caching, parallel equality, diff gating.

Covers the contracts ``docs/SWEEPS.md`` documents:

* spec expansion — axis products, constraint filters, seed fanout,
  deterministic ordering, schema validation;
* content-addressed caching — a re-run of an unchanged spec executes zero
  cells, an axis edit executes only the new cells;
* parallel-vs-serial result equality through the fork pool;
* the normalizer + diff — an injected regression is detected, added
  coverage is not a failure;
* the builtin specs: two parameter sets (full / smoke) behind one switch,
  overrides that fail loudly instead of falling back to a default.

What a cell *computes* is pinned in ``tests/test_studies.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.exceptions import ConfigurationError, DuplicateAxisValueError, SweepWorkerError
from repro.sweeps import (
    BUILTIN_SWEEPS,
    Constraint,
    SweepRunner,
    SweepSpec,
    cell_key,
    diff_payloads,
    get_sweep,
    load_spec,
    render_markdown,
    runner_for,
    spec_from_dict,
    write_sweep_json,
)

#: Small enough for the tier-1 suite, large enough that savings > 1.
TINY_STREAM = {"n": 25, "epochs": 4, "epsilon": 0.1, "topology": "grid"}


def tiny_streaming_spec(seeds=(0,), workloads=("drift",), name="tiny"):
    return SweepSpec(
        name=name,
        experiment="streaming",
        axes={"workload": tuple(workloads), "seed": tuple(seeds)},
        base=dict(TINY_STREAM),
    )


# --------------------------------------------------------------------- #
# Expansion
# --------------------------------------------------------------------- #
class TestExpansion:
    def test_axis_product_and_order(self):
        spec = SweepSpec(
            name="grid",
            experiment="streaming",
            axes={"workload": ("drift", "burst"), "seed": (0, 1, 2)},
        )
        cells = spec.expand()
        assert len(cells) == 6
        assert [cell.index for cell in cells] == list(range(6))
        # Axes iterate in sorted-name order: seed is the outer loop.
        assert cells[0].cell_id == "seed=0,workload=drift"
        assert cells[1].cell_id == "seed=0,workload=burst"
        assert len({cell.cell_id for cell in cells}) == 6
        assert len({cell.key for cell in cells}) == 6

    def test_seed_fanout_changes_keys_only_by_seed(self):
        spec = tiny_streaming_spec(seeds=(0, 1))
        cells = spec.expand()
        params = [dict(cell.params) for cell in cells]
        for entry in params:
            entry.pop("seed")
        assert params[0] == params[1]
        assert cells[0].key != cells[1].key

    def test_require_constraint_prunes_matching_cells(self):
        spec = SweepSpec(
            name="constrained",
            experiment="streaming",
            axes={
                "execution": ("batched", "sharded"),
                "radio": ("reliable", "lossy"),
            },
            constraints=(
                Constraint(
                    when={"execution": ("sharded",)},
                    require={"radio": ("reliable",)},
                ),
            ),
        )
        cells = spec.expand()
        assert len(cells) == 3
        assert all(
            cell.params["radio"] == "reliable"
            for cell in cells
            if cell.params["execution"] == "sharded"
        )

    def test_drop_constraint(self):
        spec = SweepSpec(
            name="dropped",
            experiment="streaming",
            axes={"workload": ("drift", "burst")},
            constraints=(
                Constraint(when={"workload": ("burst",)}, drop=True),
            ),
        )
        assert [cell.params["workload"] for cell in spec.expand()] == ["drift"]

    def test_base_and_axes_must_not_overlap(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                name="clash",
                experiment="streaming",
                axes={"seed": (0,)},
                base={"seed": 1},
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(name="empty", experiment="streaming", axes={"seed": ()})

    def test_unknown_experiment_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            runner_for("no_such_study")

    def test_no_axes_yields_single_default_cell(self):
        spec = SweepSpec(name="point", experiment="streaming", base=dict(TINY_STREAM))
        cells = spec.expand()
        assert len(cells) == 1
        assert cells[0].cell_id == "default"

    def test_cell_key_ignores_dict_ordering(self):
        assert cell_key("streaming", {"a": 1, "b": 2}) == cell_key(
            "streaming", {"b": 2, "a": 1}
        )
        assert cell_key("streaming", {"a": 1}) != cell_key("scaling", {"a": 1})

    def test_spec_roundtrip_through_dict(self):
        spec = get_sweep("e12_fault_tolerance", num_nodes=32)
        rebuilt = spec_from_dict(spec.to_dict())
        assert rebuilt == spec
        assert load_spec(spec.to_dict()) == spec

    def test_builtin_specs_smoke_expand(self):
        # Sixteen for E1–E9 (the paper's tables and their ablations), seven
        # for E10–E14.
        assert len(BUILTIN_SWEEPS) == 23
        for name in BUILTIN_SWEEPS:
            full = get_sweep(name)
            smoke = get_sweep(name, smoke=True)
            assert full.expand() and smoke.expand()
            assert smoke != full


# --------------------------------------------------------------------- #
# Caching
# --------------------------------------------------------------------- #
class TestCaching:
    def test_second_run_executes_zero_cells(self, tmp_path):
        spec = tiny_streaming_spec()
        runner = SweepRunner(spec, cache_dir=tmp_path, processes=0)
        first = runner.run()
        assert (first.executed, first.cached) == (1, 0)
        second = runner.run()
        assert (second.executed, second.cached) == (0, 1)
        assert [o.result["measures"] for o in second.outcomes] == [
            o.result["measures"] for o in first.outcomes
        ]

    def test_axis_edit_executes_only_new_cells(self, tmp_path):
        runner = SweepRunner(
            tiny_streaming_spec(seeds=(0,)), cache_dir=tmp_path, processes=0
        )
        runner.run()
        grown = SweepRunner(
            tiny_streaming_spec(seeds=(0, 1)), cache_dir=tmp_path, processes=0
        )
        result = grown.run()
        assert (result.executed, result.cached) == (1, 1)
        fresh = [o for o in result.outcomes if not o.cached]
        assert [o.cell.params["seed"] for o in fresh] == [1]

    def test_base_edit_misses_every_cell(self, tmp_path):
        runner = SweepRunner(tiny_streaming_spec(), cache_dir=tmp_path, processes=0)
        runner.run()
        edited = tiny_streaming_spec()
        edited = SweepSpec(
            name=edited.name,
            experiment=edited.experiment,
            axes=edited.axes,
            base={**edited.base, "epochs": edited.base["epochs"] + 1},
        )
        result = SweepRunner(edited, cache_dir=tmp_path, processes=0).run()
        assert result.cached == 0

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = tiny_streaming_spec()
        runner = SweepRunner(spec, cache_dir=tmp_path, processes=0)
        runner.run()
        (cell,) = spec.expand()
        (tmp_path / f"{cell.key}.json").write_text("{not json", encoding="utf-8")
        result = runner.run()
        assert result.executed == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry: {**entry, "result": [entry["result"]]},
            lambda entry: {**entry, "result": {"timing": {}}},
            lambda entry: {**entry, "result": {"measures": [1, 2]}},
            lambda entry: {**entry, "experiment": "scaling"},
            lambda entry: {**entry, "params": {**entry["params"], "seed": 7}},
            lambda entry: {**entry, "params": [entry["params"]]},
            lambda entry: [entry],
        ],
        ids=[
            "list-result", "no-measures", "list-measures", "experiment", "params",
            "list-params", "list-entry",
        ],
    )
    def test_mis_shaped_or_mismatched_entry_is_a_miss(self, tmp_path, corrupt):
        """A file under the right key that is not this cell's result is
        re-executed and overwritten, never recalled (it used to crash
        ``payload()`` or be trusted)."""
        spec = tiny_streaming_spec()
        clean = SweepRunner(spec, cache_dir=tmp_path / "clean", processes=0).run().payload()
        runner = SweepRunner(spec, cache_dir=tmp_path, processes=0)
        runner.run()
        path = tmp_path / f"{spec.expand()[0].key}.json"
        entry = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(corrupt(entry)), encoding="utf-8")
        rerun = runner.run()
        assert (rerun.executed, rerun.cached) == (1, 0)
        assert [cell["measures"] for cell in rerun.payload()["cells"]] == [
            cell["measures"] for cell in clean["cells"]
        ]
        assert runner.run().cached == 1  # the rerun overwrote the bad entry

    @pytest.mark.parametrize("value", ["two", "-1", "1.5", ""])
    def test_bad_process_count_env_is_a_named_error(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_PROCESSES", value)
        with pytest.raises(ConfigurationError, match="REPRO_SWEEP_PROCESSES.*" + repr(value)):
            SweepRunner(tiny_streaming_spec())
        assert SweepRunner(tiny_streaming_spec(), processes=0)  # explicit wins over env

    def test_force_reexecutes(self, tmp_path):
        runner = SweepRunner(tiny_streaming_spec(), cache_dir=tmp_path, processes=0)
        runner.run()
        assert runner.run(force=True).executed == 1


# --------------------------------------------------------------------- #
# Parallel execution
# --------------------------------------------------------------------- #
class TestParallel:
    def test_parallel_and_serial_results_identical(self, tmp_path):
        spec = tiny_streaming_spec(seeds=(0, 1), workloads=("drift", "burst"))
        serial = SweepRunner(spec, cache_dir=tmp_path / "serial", processes=0).run()
        parallel = SweepRunner(
            spec, cache_dir=tmp_path / "parallel", processes=2
        ).run()
        assert parallel.executed == serial.executed == 4
        serial_cells = serial.payload()["cells"]
        parallel_cells = parallel.payload()["cells"]
        assert [c["measures"] for c in parallel_cells] == [
            c["measures"] for c in serial_cells
        ]
        assert [c["key"] for c in parallel_cells] == [
            c["key"] for c in serial_cells
        ]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork workers"
    )
    def test_dead_worker_is_a_named_error_and_finished_cells_stay_cached(
        self, tmp_path, monkeypatch
    ):
        """A fork worker killed mid-cell fails the run by name instead of
        hanging it; the cells that finished are cached, so a re-run executes
        exactly the killed one."""
        from repro.sweeps import runner as runner_module

        run_cell = runner_module.run_cell

        def killed_on_seed_one(experiment, params):
            if params["seed"] == 1:
                # Die once both siblings are cached, so which cells finish
                # does not depend on scheduling.
                deadline = time.monotonic() + 30
                while len(list(tmp_path.glob("*.json"))) < 2 and time.monotonic() < deadline:
                    time.sleep(0.02)
                os.kill(os.getpid(), signal.SIGKILL)
            return run_cell(experiment, params)

        def hung(signum, frame):
            raise TimeoutError("SweepRunner.run() hung on a dead worker")

        monkeypatch.setattr(runner_module, "run_cell", killed_on_seed_one)
        spec = tiny_streaming_spec(seeds=(0, 1, 2))
        runner = SweepRunner(spec, cache_dir=tmp_path, processes=2)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(90)
        try:
            with pytest.raises(SweepWorkerError, match="seed=1,workload=drift") as caught:
                runner.run()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert "seed=0" not in str(caught.value) and "seed=2" not in str(caught.value)
        assert [runner.cached_result(cell) is not None for cell in spec.expand()] == [
            True,
            False,
            True,
        ]

        monkeypatch.setattr(runner_module, "run_cell", run_cell)
        rerun = runner.run()
        assert [o.cell.params["seed"] for o in rerun.outcomes if not o.cached] == [1]


# --------------------------------------------------------------------- #
# Normalizer + diff
# --------------------------------------------------------------------- #
class TestReportAndDiff:
    def payload(self, tmp_path, **kwargs):
        spec = tiny_streaming_spec(**kwargs)
        return SweepRunner(spec, cache_dir=tmp_path, processes=0).run().payload()

    def test_payload_shape_and_json_roundtrip(self, tmp_path):
        payload = self.payload(tmp_path)
        assert payload["sweep"] == "tiny"
        assert payload["cell_count"] == 1
        (cell,) = payload["cells"]
        assert cell["measures"]["savings_factor"] > 1.0
        assert "convergecast" in cell["phases"]
        path = write_sweep_json(payload, tmp_path)
        assert json.loads(path.read_text(encoding="utf-8")) == payload

    def test_markdown_lists_every_cell(self, tmp_path):
        payload = self.payload(tmp_path, seeds=(0, 1))
        rendered = render_markdown(payload)
        assert "seed=0,workload=drift" in rendered
        assert "seed=1,workload=drift" in rendered
        assert "savings_factor" in rendered

    def test_diff_detects_injected_regression(self, tmp_path):
        payload = self.payload(tmp_path)
        regressed = json.loads(json.dumps(payload))
        regressed["cells"][0]["measures"]["savings_factor"] = 1.0
        diff = diff_payloads(payload, regressed)
        assert not diff.ok
        assert [(row[0], row[1]) for row in diff.changed] == [
            ("seed=0,workload=drift", "savings_factor")
        ]
        assert "CHANGED" in diff.describe()

    def test_diff_detects_missing_cell(self, tmp_path):
        payload = self.payload(tmp_path, seeds=(0, 1))
        shrunk = json.loads(json.dumps(payload))
        shrunk["cells"] = shrunk["cells"][:1]
        diff = diff_payloads(payload, shrunk)
        assert not diff.ok
        assert diff.missing_cells == ("seed=1,workload=drift",)

    def test_diff_tolerates_new_cells_and_timing_noise(self, tmp_path):
        payload = self.payload(tmp_path, seeds=(0,))
        grown = self.payload(tmp_path, seeds=(0, 1))
        grown = json.loads(json.dumps(grown))
        for cell in grown["cells"]:
            cell["timing"] = {"cell_seconds": 999.0}
        diff = diff_payloads(payload, grown)
        assert diff.ok
        assert diff.new_cells == ("seed=1,workload=drift",)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_diff_flags_a_measure_that_turned_non_finite(self, bad):
        """``abs(nan - 5.0) > budget`` is false: NaN used to pass the gate."""

        def payload(value):
            return {"sweep": "s", "cells": [{"cell_id": "c", "measures": {"m": value}}]}

        for tolerance in (0.0, 0.5):
            for baseline, current in ((bad, 5.0), (5.0, bad)):
                diff = diff_payloads(
                    payload(baseline), payload(current), rel_tolerance=tolerance
                )
                assert [row[:2] for row in diff.changed] == [("c", "m")]
            # ...but a measure that is the same non-finite value on both sides
            # (nan vs nan included) did not change.
            assert diff_payloads(payload(bad), payload(bad), rel_tolerance=tolerance).ok
        assert not diff_payloads(payload(float("inf")), payload(float("-inf"))).ok

    def test_diff_tolerance_admits_bounded_drift(self, tmp_path):
        payload = self.payload(tmp_path)
        drifted = json.loads(json.dumps(payload))
        drifted["cells"][0]["measures"]["savings_factor"] *= 1.005
        assert not diff_payloads(payload, drifted).ok
        assert diff_payloads(payload, drifted, rel_tolerance=0.01).ok


# --------------------------------------------------------------------- #
# Builtin specs: one sizing switch, loud overrides
# --------------------------------------------------------------------- #
class TestBuiltinEquivalence:
    def test_e12_constraint_prunes_link_storm_heartbeat_arm(self):
        cells = get_sweep("e12_fault_tolerance", num_nodes=32).expand()
        combos = {
            (cell.params["scenario"], cell.params["detector_period"])
            for cell in cells
        }
        assert ("link_storm", None) in combos
        assert ("link_storm", 4) not in combos


class TestBuiltinSpecs:
    def test_smoke_selects_the_ci_sizes(self):
        assert get_sweep("e10_streaming").base["n"] == 100
        smoke = get_sweep("e10_streaming", smoke=True)
        assert (smoke.base["n"], smoke.base["epochs"]) == (64, 8)
        assert get_sweep("e11_scaling", smoke=True).axes["n"] == (256, 1024)
        # An explicit override wins over either parameter set.
        assert get_sweep("e10_streaming", smoke=True, num_nodes=25).base["n"] == 25

    def test_overrides_replace_base_values_and_axes(self):
        spec = get_sweep(
            "e14_multitenant", n=36, epochs=4, tenants=(6,), seed=(0,)
        )
        assert spec.base["n"] == 36 and spec.base["epochs"] == 4
        assert spec.axes == {"tenants": (6,), "seed": (0,)}
        # None keeps the spec's own value instead of overriding it.
        assert get_sweep("e10_streaming", epochs=None).base["epochs"] == 60

    @pytest.mark.parametrize(
        "name, override",
        [
            ("e10_streaming", {"epochs": 0}),
            ("e12_fault_tolerance", {"num_nodes": 0}),
            ("e12_fault_tolerance", {"n": -4}),
            ("e14_multitenant", {"tenants": (8, 0)}),
            ("e11_scaling", {"n": (256, 2.5)}),
        ],
    )
    def test_non_positive_size_override_is_rejected(self, name, override):
        """An explicit bad size used to fall through ``or`` to the default."""
        with pytest.raises(ConfigurationError, match="positive integer"):
            get_sweep(name, **override)

    def test_unknown_override_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter 'epocs'"):
            get_sweep("e10_streaming", epocs=8)


# --------------------------------------------------------------------- #
# Duplicate axis values: the seed-reuse footgun
# --------------------------------------------------------------------- #
class TestDuplicateAxisValues:
    def test_repeated_seed_raises_a_value_error(self):
        """seeds=(0, 1, 1) must fail loudly, not quietly run two cells.

        The error is a ValueError (generic argument-validation callers)
        *and* a ConfigurationError (the library's own hierarchy), and the
        message explains the footgun instead of just naming the axis.
        """
        with pytest.raises(ValueError, match="duplicate"):
            tiny_streaming_spec(seeds=(0, 1, 1))
        with pytest.raises(DuplicateAxisValueError) as excinfo:
            tiny_streaming_spec(seeds=(0, 1, 1))
        assert isinstance(excinfo.value, ConfigurationError)
        assert "seed" in str(excinfo.value)
        assert "cache key" in str(excinfo.value)

    def test_repeated_non_seed_axis_also_raises(self):
        with pytest.raises(DuplicateAxisValueError, match="workload"):
            tiny_streaming_spec(workloads=("drift", "burst", "drift"))

    def test_spec_from_dict_rejects_duplicates_too(self):
        payload = {
            "name": "dup",
            "experiment": "streaming",
            "axes": {"seed": [3, 3]},
            "base": dict(TINY_STREAM),
        }
        with pytest.raises(DuplicateAxisValueError):
            spec_from_dict(payload)

    def test_distinct_values_of_equal_repr_across_types_still_pass(self):
        # 1 and 1.0 repr differently; True vs 1 repr differently too — the
        # guard must compare by repr, not by hash-equality, so an int/float
        # axis mixing equal-valued distinct literals stays expressible.
        spec = tiny_streaming_spec(seeds=(1, 1.0))
        assert spec.axes["seed"] == (1, 1.0)
