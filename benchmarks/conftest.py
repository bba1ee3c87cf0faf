"""The one sizing switch of the claim tests and the path races.

Every builtin sweep spec — and each race in ``benchmarks/test_paths.py`` —
has exactly two parameter sets, *full* (the sizes README quotes) and
*smoke* (the sizes CI runs), selected by the one ``--smoke`` option;
wall-clock floors are asserted only at full size, because timing on shared
smoke runners is noise.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        help="run every claim at its smoke parameter set (CI sizes)",
    )


@pytest.fixture
def smoke(request) -> bool:
    """Whether this session runs the smoke parameter sets (``--smoke``)."""
    return request.config.getoption("--smoke")
