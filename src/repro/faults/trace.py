"""Per-epoch measurement records for runs under fault injection.

A :class:`FaultTrace` is the resilience counterpart of
:class:`~repro.streaming.StreamingTrace`: one record per epoch splitting the
traffic into *repair* control bits (adoption handshakes, pointer flips, or
the rebuild flood), *query* bits (the streaming engine's summary
re-synchronisation), *detection* bits (the heartbeat sweeps of a
:class:`~repro.faults.HeartbeatDetector`, when one is charged) and
*election* bits (a :class:`~repro.faults.RootElection`'s fail-over traffic
after a root crash), alongside
the fault events applied, the detection latency actually observed, the
surviving population, and the answer error against the attached ground
truth.  The fault benchmarks consume traces to show that incremental repair
plus delta re-sync beats rebuild-and-recompute — and what the knowledge
that repair acts on costs by itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterator

from repro.telemetry.records import EpochRecordBase, TraceSerialization


@dataclass(frozen=True)
class FaultEpochRecord(EpochRecordBase):
    """Everything measured during one epoch of a faulty run.

    Inherits the shared measurement fields and the ``to_dict()`` /
    ``to_jsonl()`` serializers from
    :class:`~repro.telemetry.EpochRecordBase`.
    """

    record_type: ClassVar[str] = "fault_epoch"

    crashes: int = 0
    rejoins: int = 0
    link_drops: int = 0
    link_restores: int = 0
    reparented: int = 0
    rebuilt: bool = False
    detached: int = 0
    alive: int = 0
    attached: int = 0
    repair_bits: int = 0
    repair_messages: int = 0
    query_bits: int = 0
    total_bits: int = 0
    answers: dict[str, Any] = field(default_factory=dict)
    truths: dict[str, float] = field(default_factory=dict)
    errors: dict[str, float] = field(default_factory=dict)
    #: Heartbeat traffic charged this epoch — the standing price of failure
    #: detection, accounted separately from repair and query bits.
    detection_bits: int = 0
    #: Crashes whose heartbeat silence was noticed this epoch.
    detected: int = 0
    #: Mean epochs from crash to detection, over this epoch's detections.
    detection_latency: float = 0.0
    #: Root fail-over traffic charged this epoch (candidate convergecast,
    #: winner flood and re-rooting flips), separate from the repair bits;
    #: every record satisfies ``total_bits == repair_bits + query_bits +
    #: detection_bits + election_bits``.
    election_bits: int = 0
    #: The root elected this epoch (``None`` when the root survived).
    new_root: int | None = None

    @property
    def had_faults(self) -> bool:
        """Whether any fault event or repair activity happened this epoch."""
        return (
            self.crashes + self.rejoins + self.link_drops + self.link_restores > 0
            or self.rebuilt
            or self.reparented > 0
            or self.detected > 0
            or self.new_root is not None
        )


@dataclass
class FaultTrace(TraceSerialization):
    """The epoch-by-epoch history of one run under fault injection."""

    records: list[FaultEpochRecord] = field(default_factory=list)

    def append(self, record: FaultEpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[FaultEpochRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> FaultEpochRecord:
        return self.records[index]

    @property
    def total_bits(self) -> int:
        return sum(record.total_bits for record in self.records)

    @property
    def total_repair_bits(self) -> int:
        return sum(record.repair_bits for record in self.records)

    @property
    def total_query_bits(self) -> int:
        return sum(record.query_bits for record in self.records)

    @property
    def total_detection_bits(self) -> int:
        """Heartbeat traffic across the run — what knowing about failures cost."""
        return sum(record.detection_bits for record in self.records)

    @property
    def total_detected(self) -> int:
        return sum(record.detected for record in self.records)

    @property
    def total_election_bits(self) -> int:
        """Root fail-over traffic across the run — what handovers cost."""
        return sum(record.election_bits for record in self.records)

    @property
    def election_count(self) -> int:
        """How many epochs performed a root fail-over."""
        return sum(1 for record in self.records if record.new_root is not None)

    @property
    def mean_detection_latency(self) -> float:
        """Mean epochs from crash to detection, over every detected crash."""
        detected = self.total_detected
        if detected == 0:
            return 0.0
        weighted = sum(
            record.detection_latency * record.detected for record in self.records
        )
        return weighted / detected

    @property
    def rebuild_count(self) -> int:
        return sum(1 for record in self.records if record.rebuilt)

    @property
    def fault_epoch_bits(self) -> int:
        """Total bits (repair + queries) charged during fault epochs.

        This is the cost *attributable to surviving the faults*: outside
        fault epochs the incremental and naive policies behave identically,
        so the benchmarks compare exactly this figure.
        """
        return sum(
            record.total_bits for record in self.records if record.had_faults
        )

    def max_answer_error(self, name: str) -> float:
        """Largest per-epoch absolute error recorded for query ``name``."""
        return max(
            (record.errors[name] for record in self.records if name in record.errors),
            default=0.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"FaultTrace(epochs={len(self.records)}, "
            f"repair_bits={self.total_repair_bits}, "
            f"query_bits={self.total_query_bits}, "
            f"rebuilds={self.rebuild_count})"
        )
