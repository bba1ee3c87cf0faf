"""JSONL export/import for telemetry traces and epoch records.

Every telemetry artifact — span traces, metrics dumps, per-epoch records
from :class:`~repro.streaming.StreamingTrace` / :class:`~repro.faults.FaultTrace`
— serializes as JSON Lines: one self-describing JSON object per line, a
``"type"`` field naming the line kind (``span``, ``metrics``, ``epoch``,
``fault_epoch``).  JSONL keeps the files streamable (a crashed run still
yields a readable prefix) and lets ``scripts/telemetry_report.py`` and the
CI artifact pipeline consume them with no schema negotiation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.exceptions import TraceFormatError


def dumps_line(record: Mapping) -> str:
    """One JSONL line (compact separators, sorted keys, no newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> int:
    """Write ``records`` to ``path`` as JSONL; returns the line count."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with target.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(dumps_line(record))
            handle.write("\n")
            written += 1
    return written


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield each JSONL line of ``path`` as a dict (blank lines skipped).

    A line that is not valid JSON, or valid JSON but not an object, raises
    :class:`~repro.exceptions.TraceFormatError` naming ``path`` and the
    1-based line.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceFormatError(
                    f"{path} line {number} is not valid JSON (truncated write?): "
                    f"{error.msg}"
                ) from None
            if not isinstance(record, dict):
                raise TraceFormatError(
                    f"{path} line {number} is a JSON {type(record).__name__}, "
                    "not a record object"
                )
            yield record


def load_jsonl(path: str | Path) -> list[dict]:
    """Read a whole JSONL file into memory."""
    return list(read_jsonl(path))


def split_by_type(records: Iterable[Mapping]) -> dict[str, list[dict]]:
    """Group JSONL records by their ``"type"`` field.

    Lines without a ``type`` land under ``"unknown"`` rather than being
    dropped — a trace reader must never silently lose data.
    """
    groups: dict[str, list[dict]] = {}
    for record in records:
        kind = record.get("type", "unknown")
        groups.setdefault(str(kind), []).append(dict(record))
    return groups
