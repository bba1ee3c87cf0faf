"""Per-epoch measurement records for the streaming engines.

The one-shot protocols report a single :class:`~repro.protocols.ProtocolResult`;
a continuous query instead produces a *trace*: one record per epoch carrying
the answers, the communication charged that epoch (ledger deltas), the energy
those bits cost under an :class:`~repro.network.EnergyModel`, and the
suppression statistics that explain *why* the traffic is what it is.  The
benchmarks and :mod:`repro.analysis.experiments` consume traces to quantify
incremental-versus-recompute savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterator

from repro.network.accounting import LedgerSnapshot
from repro.network.energy import EnergyModel
from repro.telemetry.records import EpochRecordBase, TraceSerialization


@dataclass(frozen=True)
class EpochRecord(EpochRecordBase):
    """Everything measured during one epoch of a streaming engine.

    Inherits the shared measurement fields and the ``to_dict()``
    serializer from
    :class:`~repro.telemetry.EpochRecordBase`.
    """

    record_type: ClassVar[str] = "epoch"

    #: Total bits charged this epoch (all queries together).
    bits: int = 0
    answers: dict[str, Any] = field(default_factory=dict)
    per_query_bits: dict[str, int] = field(default_factory=dict)


@dataclass
class StreamingTrace(TraceSerialization):
    """The epoch-by-epoch history of one engine run."""

    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EpochRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> EpochRecord:
        return self.records[index]

    @property
    def total_bits(self) -> int:
        return sum(record.bits for record in self.records)

    @property
    def total_messages(self) -> int:
        return sum(record.messages for record in self.records)

    @property
    def total_energy_nj(self) -> float:
        return sum(record.energy_nj for record in self.records)

    def steady_state_bits(self, warmup: int = 1) -> float:
        """Mean bits per epoch after the first ``warmup`` epochs.

        The first epoch ships full summaries from every node (nothing is
        cached yet), so steady-state traffic is the meaningful figure for
        sustained monitoring.
        """
        tail = self.records[warmup:]
        if not tail:
            return 0.0
        return sum(record.bits for record in tail) / len(tail)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"StreamingTrace(epochs={len(self.records)}, "
            f"total_bits={self.total_bits}, total_messages={self.total_messages})"
        )


def build_epoch_record(
    epoch: int,
    answers: dict[str, Any],
    before: LedgerSnapshot,
    after: LedgerSnapshot,
    num_nodes: int,
    energy_model: EnergyModel,
    dirty_nodes: int,
    transmissions: int,
    suppressions: int,
    query_names: list[str] | None = None,
    protocol_prefix: str = "stream",
) -> EpochRecord:
    """Assemble an :class:`EpochRecord` from two ledger snapshots.

    Every transmitted bit is also received once, so the epoch's energy is
    ``bits · (tx + amp + rx)`` plus the idle cost of keeping ``num_nodes``
    radios on for the epoch's rounds.
    """
    bits = after.total_bits - before.total_bits
    rounds = after.rounds - before.rounds
    energy_nj = (
        bits
        * (
            energy_model.transmit_nj_per_bit
            + energy_model.amplifier_nj_per_bit
            + energy_model.receive_nj_per_bit
        )
        + energy_model.idle_nj_per_round * rounds * num_nodes
    )
    per_query_bits: dict[str, int] = {}
    for name in query_names or []:
        label = f"{protocol_prefix}:{name}"
        per_query_bits[name] = after.per_protocol_bits.get(
            label, 0
        ) - before.per_protocol_bits.get(label, 0)
    return EpochRecord(
        epoch=epoch,
        answers=dict(answers),
        bits=bits,
        messages=after.messages - before.messages,
        rounds=rounds,
        energy_nj=energy_nj,
        dirty_nodes=dirty_nodes,
        transmissions=transmissions,
        suppressions=suppressions,
        per_query_bits=per_query_bits,
    )
