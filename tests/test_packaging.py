"""``pyproject.toml`` must not drift from the package it describes."""

import ast
import re
import sys
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
