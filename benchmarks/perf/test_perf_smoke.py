"""Smoke test of the benchmark itself (``pytest benchmarks/perf``).

Everything runs the ``--smoke`` sizes through the same code path as the
full set: the names a run emits are the names ``BENCHMARK.json`` fixes,
exact counts repeat and follow the seed, the traced pass accounts for the
whole op and leaves nothing patched, and ``compare`` reaches the verdict a
reader would.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from benchmarks.perf import compare, harness, spec

pytest.importorskip("numpy", reason="four of the five workloads time the numpy path")

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _summary(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    summary = _summary(_cli("--smoke", "--out", str(out)))
    assert summary["correct"] and summary["failed"] == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _run(name: str, seed: int, traced: bool = False) -> dict:
    from benchmarks.perf import repeat

    return repeat.run_repeat(name, seed, True, traced, perf_counter())


# --------------------------------------------------------------------------- #
# Names
# --------------------------------------------------------------------------- #
def test_manifest_matches_spec():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(spec.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]] == [
        (m.name, m.unit, m.better, m.gate) for m in spec.GATED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]
    assert MANIFEST["paths"] == ["benchmarks/perf"]


def test_smoke_emits_every_workload_and_metric(smoke_result):
    assert smoke_result["comparable"] is False
    assert list(smoke_result["workloads"]) == list(spec.WORKLOAD_NAMES)
    for entry in smoke_result["workloads"].values():
        assert list(entry["metrics"]) == list(spec.END_TO_END_NAMES)
    stream = [w.name for w in spec.WORKLOADS if w.kind == "stream"]
    assert smoke_result["differential"] == dict.fromkeys(stream)


def test_driver_lines_carry_exactly_the_manifest_names():
    untraced = _summary(_cli("--smoke", "--workload", "tenants_lossy", "--trace", "0"))
    assert list(untraced["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    traced = _summary(_cli("--smoke", "--workload", "observed_quiet", "--trace", "1"))
    assert list(traced["metrics"]) == [m["name"] for m in MANIFEST["per_layer"]]
    assert traced["correct"] and traced["failed"] == 0
    # Observing never changes what a run costs, and it is not free.
    assert traced["metrics"]["telemetry.spans_per_op"]["value"] > 0
    assert traced["metrics"]["telemetry.attribution.observe.calls_per_op"]["value"] > 0


def test_observing_leaves_the_simulated_cost_alone(smoke_result):
    quiet = smoke_result["workloads"]["quiet_drift"]["metrics"]
    observed = smoke_result["workloads"]["observed_quiet"]["metrics"]
    for name in ("bits_per_op", "messages_per_op"):
        assert quiet[name]["value"] == observed[name]["value"]


def test_unknown_workload_is_a_named_error():
    done = _cli("--smoke", "--workload", "no_such_workload")
    assert done.returncode == 2
    assert "UnknownNameError" in done.stderr and "no_such_workload" in done.stderr


# --------------------------------------------------------------------------- #
# Exact counts
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["storm_churn", "oneshot_paper"])
def test_exact_counts_repeat_and_follow_the_seed(name):
    first, again, other = _run(name, 0), _run(name, 0), _run(name, 1)
    assert first["cost"] == again["cost"]
    assert first["rows"] == again["rows"]
    assert first["ledger"] == again["ledger"]
    assert first["cost"] != other["cost"]


def test_repeat_with_different_counts_is_a_named_error():
    first, other = _run("storm_churn", 0), _run("storm_churn", 1)
    with pytest.raises(spec.ExactMismatchError, match="'storm_churn' repeat 2"):
        harness.pool("storm_churn", [first, other])


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
def _patched_names() -> list[str]:
    """Every wrapper still reachable from the library's modules and classes."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if hasattr(value, "__perf_span__"):
                found.append(f"{module_name}.{attribute}")
            if isinstance(value, type):
                found += [
                    f"{module_name}.{attribute}.{name}"
                    for name, member in vars(value).items()
                    if hasattr(member, "__perf_span__")
                ]
    return found


@pytest.mark.parametrize("name", ["storm_churn", "tenants_lossy", "oneshot_paper"])
def test_traced_pass_accounts_for_the_op_and_restores(name):
    untraced, traced = _run(name, 0), _run(name, 0, traced=True)
    assert _patched_names() == []
    assert harness.first_difference(
        untraced["rows"], traced["rows"], untraced["ledger"], traced["ledger"]
    ) is None
    layers = traced["layers"]
    self_time = sum(row["self_ms_per_op"] for row in layers.values())
    op_time = 1000.0 * traced["timed_s"] / len(traced["op_ms"])
    assert self_time == pytest.approx(op_time, rel=0.02)
    assert set(layers) == set(spec.SPANS) | {spec.RUNNER_SELF}


def test_workloads_separate_the_layers():
    quiet = _run("quiet_drift", 0, traced=True)["layers"]
    storm = _run("storm_churn", 0, traced=True)["layers"]
    for span in ("faults.repair.repair", "network.flat_tree.rewire", "faults.election.elect"):
        assert quiet[span]["calls_per_op"] == 0
        assert storm[span]["calls_per_op"] > 0


def test_patcher_restores_instance_class_and_module_bindings():
    from repro.network import FlatTree
    from repro.protocols import aggregates, broadcast

    from benchmarks.perf import tracing

    class Owner:
        def method(self):
            return "original"

    owner = Owner()
    recorder, patcher = tracing.SpanRecorder(), tracing.Patcher()
    rewire = FlatTree.rewire
    patcher.replace(owner, "method", lambda f: recorder.wrap("faults.step", f))
    patcher.replace(FlatTree, "rewire", lambda f: recorder.wrap("faults.step", f))
    patcher.replace_function(broadcast, lambda f: recorder.wrap("faults.step", f))
    assert "method" in vars(owner) and aggregates.broadcast is not broadcast
    assert owner.method() == "original" and len(recorder.spans) == 1
    patcher.restore()
    assert "method" not in vars(owner)
    assert FlatTree.rewire is rewire and aggregates.broadcast is broadcast
    assert _patched_names() == []


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
def _side(value: float, repeats: list[float]) -> dict:
    return {"value": value, "repeats": repeats}


def test_compare_verdicts_on_hand_made_inputs():
    rate = spec.Metric("ops_per_s", "op/s", "higher", 0.10)
    p50 = spec.Metric("op_ms_p50", "ms", "lower", 0.10)
    bits = spec.metric("bits_per_op")
    assert bits.bound == 0.0  # exact
    quiet = [100.0, 101.0, 99.0]
    assert compare.verdict(rate, _side(100, quiet), _side(103, [103, 104, 102])) == "unchanged"
    assert compare.verdict(rate, _side(100, quiet), _side(80, [80, 81, 79])) == "regressed"
    assert compare.verdict(rate, _side(100, quiet), _side(125, [125, 126, 124])) == "improved"
    assert compare.verdict(p50, _side(10, [10, 10.1, 9.9]), _side(12, [12, 12.1, 11.9])) == "regressed"
    # Repeats spread wider than the bound and the sides overlap: unresolved...
    noisy = [90.0, 100.0, 115.0]
    assert compare.verdict(rate, _side(100, noisy), _side(85, [80, 85, 95])) == "unresolved"
    # ...unless every repeat of one side beats every repeat of the other.
    assert compare.verdict(rate, _side(100, noisy), _side(70, [60, 70, 80])) == "regressed"
    assert compare.verdict(rate, _side(100, noisy), _side(130, [120, 130, 150])) == "improved"
    assert compare.verdict(bits, _side(500, [500] * 3), _side(500, [500] * 3)) == "unchanged"
    assert compare.verdict(bits, _side(500, [500] * 3), _side(501, [501] * 3)) == "regressed"
    assert compare.verdict(bits, _side(500, [500] * 3), _side(499, [499] * 3)) == "improved"
    assert compare.verdict(bits, _side(0, [0] * 3), _side(0, [0] * 3)) == "unchanged"


def test_compare_exits_non_zero_on_a_regression(smoke_result, tmp_path):
    parent = json.loads(json.dumps(smoke_result))
    parent["comparable"] = True
    change = json.loads(json.dumps(parent))
    change["workloads"]["quiet_drift"]["metrics"]["bits_per_op"]["value"] += 1
    paths = []
    for label, payload in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(payload), encoding="utf-8")
    rows = compare.compare(parent, change)
    assert [row[:3] for row in rows if row[2] == "regressed"] == [
        ("quiet_drift", "bits_per_op", "regressed")
    ]
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(path) for path in paths]) == 1
    with pytest.raises(spec.PerfBenchError, match="not comparable"):
        compare.compare(smoke_result, smoke_result)
    renamed = json.loads(json.dumps(parent))
    metrics = renamed["workloads"]["quiet_drift"]["metrics"]
    metrics["ops_per_second"] = metrics.pop("ops_per_s")
    with pytest.raises(spec.UnknownNameError, match="ops_per_second"):
        compare.compare(parent, renamed)
