"""The shared base of every per-epoch measurement record.

:class:`~repro.streaming.StreamingTrace` and
:class:`~repro.faults.FaultTrace` each carry one frozen record per epoch.
Before the telemetry layer existed they invented those records separately;
now both subclass :class:`EpochRecordBase`, which owns the fields every
epoch shares (the ledger deltas, the energy, the suppression statistics)
and their serialization (:meth:`EpochRecordBase.to_dict`) — the field
list is introspected from the dataclass, so a new field added to either
record serializes without touching an exporter.

This module imports nothing from :mod:`repro.streaming` or
:mod:`repro.faults`; the dependency points the other way (telemetry is the
substrate, the engines are the clients), which keeps the package free of
import cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Iterator


def json_safe(value: Any) -> Any:
    """Coerce ``value`` into something :func:`json.dumps` accepts.

    Tuples and sets become lists, mappings recurse, and anything exotic
    (a sketch object in an answers dict, say) falls back to ``repr`` —
    a trace line must always serialize, even when an answer type does not.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [json_safe(item) for item in items]
    return repr(value)


@dataclass(frozen=True)
class EpochRecordBase:
    """Fields every per-epoch record shares, plus their JSON-safe dict.

    Subclasses set :attr:`record_type` — it becomes the ``"type"`` field
    of each serialized record, so mixed trace files remain self-describing.
    """

    record_type: ClassVar[str] = "epoch_record"

    epoch: int
    #: Ledger deltas over the epoch.
    messages: int
    rounds: int
    #: Radio energy the epoch's traffic cost under the attached model.
    energy_nj: float
    #: Suppression statistics explaining the traffic volume.
    dirty_nodes: int
    transmissions: int
    suppressions: int

    def to_dict(self) -> dict:
        """JSON-safe dict of every field, tagged with :attr:`record_type`."""
        payload: dict[str, Any] = {"type": type(self).record_type}
        for spec in dataclasses.fields(self):
            payload[spec.name] = json_safe(getattr(self, spec.name))
        return payload


class TraceSerialization:
    """Export mixin for any trace holding :class:`EpochRecordBase` rows.

    Expects the host class to expose ``self.records`` (the mixin is what
    lets ``StreamingTrace`` and ``FaultTrace`` share exporters without
    duplicated field lists).
    """

    records: list

    def to_dicts(self) -> Iterator[dict]:
        """One JSON-safe dict per epoch record, in epoch order."""
        for record in self.records:
            yield record.to_dict()
