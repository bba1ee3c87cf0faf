"""``pyproject.toml`` must not drift from the package it describes."""

import ast
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


@pytest.fixture(scope="module")
def pyproject() -> dict:
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)


def test_version_has_one_source(pyproject):
    project = pyproject["project"]
    if "version" in project:
        # A literal is allowed back only if it agrees with the package.
        assert project["version"] == repro.__version__
    else:
        assert "version" in project["dynamic"]
        dynamic = pyproject["tool"]["setuptools"]["dynamic"]["version"]
        assert dynamic == {"attr": "repro.__version__"}


def test_test_extra_declares_what_the_suite_imports(pyproject):
    declared = " ".join(pyproject["project"]["optional-dependencies"]["test"])
    for package in ("pytest", "hypothesis"):
        assert package in declared


def third_party_imports() -> dict[str, set[str]]:
    """Top-level package of every absolute non-stdlib import under
    ``src/repro`` (function-local ones included) → the files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ("repro", "__future__"):
                    found.setdefault(top, set()).add(path.relative_to(ROOT).as_posix())
    return found


def test_every_third_party_import_is_a_dependency(pyproject):
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in pyproject["project"]["dependencies"]
    }
    imported = third_party_imports()
    assert "numpy" in imported and "networkx" in imported
    undeclared = {name: files for name, files in imported.items() if name not in declared}
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"


def test_no_fast_extra(pyproject):
    # numpy is a dependency: there is no optional accelerated mode to install.
    assert "fast" not in pyproject["project"].get("optional-dependencies", {})


BLOCK_SCIPY_AND_BUILD = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from repro.network import SensorNetwork

network = SensorNetwork.from_items(
    [0] * 20000, topology="random_geometric", seed=0, degree_bound=None
)
assert network.links.num_edges == 605225, network.links.num_edges
assert "scipy" not in sys.modules
"""


def test_random_geometric_fields_need_no_scipy():
    """scipy is not a dependency.  networkx's own generator needs it for a
    KD-tree and otherwise compares all ~200M pairs of a 20,000-node field;
    the link generator finds the same 605,225 links with numpy alone."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY_AND_BUILD], check=True, env=env, timeout=60
    )
    assert time.perf_counter() - started < 10


BLOCK_NETWORKX_AND_RUN = """
import importlib
import pkgutil
import sys

class BlockNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ImportError("networkx is blocked")
        return None

sys.meta_path.insert(0, BlockNetworkx())
import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)

from repro.core import DeterministicMedianProtocol, reference_median
from repro.faults import FaultEngine, FaultScript, NodeCrash, RootCrash, run_faulty_stream
from repro.network import ReliableRadio, SensorNetwork
from repro.network.topology import TOPOLOGY_BUILDERS, build_links
from repro.streaming import ContinuousQueryEngine, CountQuery
from repro.workloads import DriftStream

for name in TOPOLOGY_BUILDERS:
    assert build_links(name, 25, seed=1).num_edges > 0, name

items = [(7 * node) % 31 for node in range(30)]
for execution in ("batched", "per-edge"):
    network = SensorNetwork.from_items(
        items, topology="random_geometric", seed=2, execution=execution
    )
    result = DeterministicMedianProtocol().run(network)
    assert result.value.median == reference_median(items), execution

class FoldingReliableRadio(ReliableRadio):  # perfect links, count queries on the fold
    pass

for radio in (FoldingReliableRadio(), ReliableRadio()):  # the fold, then the sweep
    network = SensorNetwork.from_items([0] * 36, topology="grid", radio=radio)
    network.clear_items()
    engine = ContinuousQueryEngine(network, epsilon=0.1)
    engine.register("count", CountQuery())
    script = FaultScript({2: [NodeCrash(7)], 4: [RootCrash()]})
    faults = FaultEngine(network, script=script)
    trace = run_faulty_stream(engine, DriftStream(36, seed=0), faults, epochs=6)
    new_roots = [row["new_root"] for row in trace.to_dicts() if row["new_root"] is not None]
    assert new_roots == [35], (type(radio).__name__, new_roots)

assert "networkx" not in sys.modules
"""


def test_the_run_paths_need_no_networkx():
    """networkx is read only by the adapters that hand a caller an
    ``nx.Graph`` or take one: every module imports, every topology builds,
    and one-shot and faulty streaming runs complete with it blocked."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-c", BLOCK_NETWORKX_AND_RUN], check=True, env=env, timeout=120
    )
