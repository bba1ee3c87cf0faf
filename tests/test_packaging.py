"""``pyproject.toml`` must not drift from the package it describes."""

from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
