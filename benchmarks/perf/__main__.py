"""``python -m benchmarks.perf`` — see ``README.md`` beside this file."""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]


def _bootstrap() -> None:
    """Put the program under test (``src/``) and this package on the path.

    The benchmark measures the source tree it sits in; without one there is
    nothing to measure, and saying so beats an import traceback.
    """
    if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"benchmarks.perf: no src/repro under {_ROOT}; nothing to measure",
            file=sys.stderr,
        )
        raise SystemExit(2)
    for path in (str(_ROOT), str(_ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    _bootstrap()
    from benchmarks.perf.cli import main

    raise SystemExit(main(sys.argv[1:]))
