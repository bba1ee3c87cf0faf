"""The recorder protocol behind every profiling hook.

Instrumented code — the execution core, the epoch pipeline, the fault
machinery — never talks to a concrete tracer.  It talks to a
:class:`TelemetryRecorder`: open a span, bump a counter, observe a value.
The default recorder on every :class:`~repro.network.SensorNetwork` is the
:data:`NULL_RECORDER` singleton, whose every method is a no-op returning
shared immutable objects, so instrumentation costs one attribute read and
one no-op call when telemetry is off — nothing is allocated, nothing is
charged, and the tier-1 overhead-guard test holds the ledger to *zero*
extra bits.

Hot paths (``SensorNetwork.send`` / ``send_batch``, the per-level sweep
loops) additionally gate their hooks on :attr:`TelemetryRecorder.enabled`,
so a disabled recorder costs a single truthiness check per call there.

Concrete recorders subclass (or merely duck-type) this interface:
:class:`~repro.telemetry.spans.SpanTracer` is the one the repository
ships.
"""

from __future__ import annotations

from typing import Any, Mapping


class NullSpan:
    """The span that isn't: a shared, reusable, no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **attributes: Any) -> None:
        """Discard the attributes (the real span attaches them)."""


#: The single :class:`NullSpan` every disabled hook shares.
NULL_SPAN = NullSpan()


class TelemetryRecorder:
    """What instrumented code may ask of a recorder.

    The base class *is* the null implementation: every method is a no-op,
    so subclasses override only what they record.  The contract every
    recorder must honour:

    * **recording never charges the ledger** — telemetry observes the
      cost model, it is not part of it (asserted by the overhead-guard
      test in ``tests/test_telemetry.py``);
    * :meth:`span` returns a context manager; nesting is the caller's
      structure and the recorder must tolerate spans closing in LIFO
      order only (the ``with`` statement guarantees it);
    * hooks may fire on *both* execution paths — a recorder must not
      assume batched-only traffic.
    """

    #: Fast gate for hot-path hooks: ``if recorder.enabled: ...``.
    enabled: bool = False

    #: Optional :class:`~repro.telemetry.flight.FlightRecorder` sink for
    #: causal events (``None`` keeps :meth:`event` a no-op).
    flight: Any = None

    #: Optional :class:`~repro.telemetry.attribution.CostAttribution` sink
    #: fed per-node ledger deltas as spans close.
    attribution: Any = None

    def bind_ledger(self, ledger: Any) -> None:
        """Attach the :class:`~repro.network.CommunicationLedger` spans meter.

        Called by :attr:`SensorNetwork.telemetry <repro.network.SensorNetwork>`
        when a recorder is installed on a network.
        """

    def span(self, name: str, **attributes: Any) -> Any:
        """Open a named span; returns a context manager."""
        return NULL_SPAN

    def count(self, name: str, value: int | float = 1, **labels: str) -> None:
        """Add ``value`` to the counter ``name`` (labelled)."""

    def gauge(self, name: str, value: int | float, **labels: str) -> None:
        """Set the gauge ``name`` to ``value`` (labelled)."""

    def observe(self, name: str, value: int | float, **labels: str) -> None:
        """Record one observation into the histogram ``name`` (labelled)."""

    def event(
        self,
        kind: str,
        *,
        node: int | None = None,
        cause: int | None = None,
        **attributes: Any,
    ) -> int | None:
        """Record one causal flight event; returns its id (``None`` here).

        No-op unless a concrete recorder carries a :attr:`flight`
        recorder.  Emitters gate on :attr:`enabled` first, so the disabled
        path never even reaches this call.
        """
        return None


class NullRecorder(TelemetryRecorder):
    """The default recorder: records nothing, allocates nothing.

    A distinct class (rather than using :class:`TelemetryRecorder`
    directly) so ``type(network.telemetry) is NullRecorder`` reads as the
    *intentional* disabled state in tests and reprs.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return "NullRecorder()"


#: The shared disabled recorder every network starts with.
NULL_RECORDER = NullRecorder()


def as_recorder(telemetry: "TelemetryRecorder | None") -> TelemetryRecorder:
    """Normalise an optional recorder argument: ``None`` means disabled."""
    return telemetry if telemetry is not None else NULL_RECORDER


def flatten_labels(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    """Canonical, hashable form of a label set (sorted by key)."""
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))
