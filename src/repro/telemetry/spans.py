"""The span tracer: nested, timed, ledger-metered phases of a run.

A *span* wraps one phase of the epoch pipeline — the heartbeat sweep, the
election, the repair pass, the streaming sweep — and records what that
phase cost in every currency the repository measures: wall-clock seconds
(``perf_counter``), communication bits / messages / rounds (the delta of
the bound :class:`~repro.network.CommunicationLedger`, metered with the
ledger marks :class:`~repro.protocols.base.MeteredRun` uses),
and the largest single-node bit delta inside the phase.

Spans nest: the per-epoch driver opens an ``epoch`` span, the fault
machinery opens ``detect`` / ``repair`` / ``election`` children inside it,
the streaming engine opens ``stream`` with one ``convergecast`` child per
standing query.  Each finished span knows its parent and the inclusive
bits of its direct children, so :attr:`Span.exclusive_bits` — the bits
charged in the span but in none of its children — is exact.  Summing
``exclusive_bits`` over an epoch's subtree therefore reconciles *exactly*
with the ledger's epoch delta; ``tests/test_telemetry.py`` asserts this on
both execution paths (the repository's accounting stance applied to the
telemetry itself: no bit may hide between phases).

The tracer is a :class:`~repro.telemetry.recorder.TelemetryRecorder`, so
installing one on a network (``network.telemetry = SpanTracer()``) turns
on every profiling hook at once; its counters/gauges/histograms land in an
attached :class:`~repro.telemetry.metrics.MetricsRegistry`, and finished
spans export as JSONL via :meth:`SpanTracer.write_jsonl`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import TelemetryRecorder


@dataclass
class Span:
    """One finished phase: its identity, timing, and ledger deltas."""

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    #: Seconds from tracer start to span open (monotonic clock).
    started_s: float
    #: Wall-clock seconds spent inside the span.
    wall_s: float = 0.0
    #: Ledger deltas over the span (inclusive of child spans).
    bits: int = 0
    messages: int = 0
    rounds: int = 0
    #: Largest per-node bits delta inside the span — the paper's cost
    #: measure, scoped to one phase.
    max_node_bits: int = 0
    #: Inclusive bits of the span's *direct* children.
    child_bits: int = 0
    children: int = 0
    #: Whether the span body raised (the span still closes and meters).
    failed: bool = False
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def exclusive_bits(self) -> int:
        """Bits charged in this span but in none of its children."""
        return self.bits - self.child_bits

    def annotate(self, **attributes: Any) -> None:
        """Attach extra attributes (last write per key wins)."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict:
        """JSON-safe dict — one JSONL line of the trace file."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "started_s": round(self.started_s, 9),
            "wall_s": round(self.wall_s, 9),
            "bits": self.bits,
            "exclusive_bits": self.exclusive_bits,
            "messages": self.messages,
            "rounds": self.rounds,
            "max_node_bits": self.max_node_bits,
            "children": self.children,
            "failed": self.failed,
            "attributes": self.attributes,
        }


class _OpenSpan:
    """The context manager guarding one in-flight span."""

    __slots__ = ("_tracer", "span", "_mark")

    def __init__(self, tracer: "SpanTracer", span: Span, mark: Any) -> None:
        self._tracer = tracer
        self.span = span
        self._mark = mark

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._tracer._close(self, failed=exc_type is not None)
        return False

    def annotate(self, **attributes: Any) -> None:
        self.span.annotate(**attributes)


class SpanTracer(TelemetryRecorder):
    """The concrete recorder: spans + metrics, JSONL out.

    ``ledger`` may be supplied up front or bound later — installing the
    tracer on a :class:`~repro.network.SensorNetwork` binds the network's
    ledger automatically.  Without a ledger, spans still time themselves;
    their bit deltas are zero.  Re-binding while spans are open is a
    configuration error (the open marks would meter the wrong ledger).
    """

    enabled = True

    def __init__(
        self,
        ledger: Any = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.perf_counter,
        flight: Any = None,
        attribution: Any = None,
    ) -> None:
        self._ledger = ledger
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._origin = clock()
        self._stack: list[_OpenSpan] = []
        self._next_id = 1
        #: Finished spans, in completion order (children before parents).
        self.spans: list[Span] = []
        #: Optional :class:`~repro.telemetry.flight.FlightRecorder` sink.
        self.flight = flight
        #: Optional :class:`~repro.telemetry.attribution.CostAttribution`
        #: sink, fed each closing ``epoch`` span.
        self.attribution = attribution

    # ------------------------------------------------------------------ #
    # Recorder protocol
    # ------------------------------------------------------------------ #
    def bind_ledger(self, ledger: Any) -> None:
        if ledger is self._ledger:
            return
        if self._stack:
            raise ConfigurationError(
                "cannot re-bind the tracer's ledger while "
                f"{len(self._stack)} span(s) are open"
            )
        self._ledger = ledger

    def span(self, name: str, **attributes: Any) -> _OpenSpan:
        parent = self._stack[-1].span if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            started_s=self._clock() - self._origin,
            attributes=dict(attributes),
        )
        self._next_id += 1
        mark = self._ledger.mark() if self._ledger is not None else None
        handle = _OpenSpan(self, span, mark)
        self._stack.append(handle)
        return handle

    def count(self, name: str, value: int | float = 1, **labels: str) -> None:
        self.metrics.count(name, value, **labels)

    def gauge(self, name: str, value: int | float, **labels: str) -> None:
        self.metrics.gauge(name, value, **labels)

    def observe(self, name: str, value: int | float, **labels: str) -> None:
        self.metrics.observe(name, value, **labels)

    def event(
        self,
        kind: str,
        *,
        node: int | None = None,
        cause: int | None = None,
        **attributes: Any,
    ) -> int | None:
        """Record a causal flight event, anchored to the open span stack.

        The innermost open span becomes ``parent_span_id``; the event's
        epoch is ``attributes["epoch"]`` when the emitter supplies one,
        else the nearest enclosing span that carries an ``epoch``
        attribute.  Returns the event id, or ``None`` with no flight
        recorder attached.
        """
        flight = self.flight
        if flight is None:
            return None
        epoch = attributes.pop("epoch", None)
        if epoch is None:
            for handle in reversed(self._stack):
                epoch = handle.span.attributes.get("epoch")
                if epoch is not None:
                    break
        parent_span_id = self._stack[-1].span.span_id if self._stack else None
        return flight.record(
            kind,
            epoch=epoch,
            node=node,
            parent_span_id=parent_span_id,
            cause=cause,
            **attributes,
        )

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #
    def _close(self, handle: _OpenSpan, failed: bool) -> None:
        if not self._stack or self._stack[-1] is not handle:
            raise ConfigurationError(
                "span closed out of order; spans must close LIFO "
                "(use them as context managers)"
            )
        self._stack.pop()
        span = handle.span
        span.wall_s = self._clock() - self._origin - span.started_s
        span.failed = failed
        ledger = self._ledger
        mark = handle._mark
        if ledger is not None and mark is not None:
            span.bits = ledger.total_bits - mark.total_bits
            span.messages = ledger.total_messages - mark.messages
            span.rounds = ledger.rounds - mark.rounds
            attribution = self.attribution
            deltas = None
            if attribution is not None and span.name == "epoch":
                # Reuse the span's own mark: per-node attribution costs no
                # additional mark, and never a charged bit.  The fold hands
                # back the delta array so max_node_bits comes from the
                # same single subtraction.
                deltas = attribution.observe_span(span, ledger, mark)
            if deltas is not None:
                span.max_node_bits = (
                    max(0, int(deltas.max())) if deltas.size else 0
                )
            elif span.bits:
                span.max_node_bits = ledger.max_node_delta_since(mark)
            ledger.release(mark)
        if self._stack:
            parent = self._stack[-1].span
            parent.children += 1
            parent.child_bits += span.bits
        self.spans.append(span)
        metrics = self.metrics
        metrics.observe("phase.wall_s", span.wall_s, phase=span.name)
        if span.bits:
            metrics.count("phase.bits", span.bits, phase=span.name)

    # ------------------------------------------------------------------ #
    # Queries and export
    # ------------------------------------------------------------------ #
    def spans_named(self, name: str) -> list[Span]:
        """Finished spans called ``name``, in completion order."""
        return [span for span in self.spans if span.name == name]

    def subtree_of(self, span: Span) -> list[Span]:
        """A finished span plus every descendant, in completion order."""
        wanted = {span.span_id}
        subtree = []
        # Completion order lists children before parents, so walk backwards
        # from the root span and collect ids top-down instead.
        by_parent: dict[int | None, list[Span]] = {}
        for candidate in self.spans:
            by_parent.setdefault(candidate.parent_id, []).append(candidate)
        frontier = [span]
        while frontier:
            current = frontier.pop()
            subtree.append(current)
            for child in by_parent.get(current.span_id, ()):
                if child.span_id not in wanted:
                    wanted.add(child.span_id)
                    frontier.append(child)
        subtree.sort(key=lambda s: s.span_id)
        return subtree

    def phase_summary(self) -> dict[str, dict[str, float]]:
        """Aggregate finished spans by name: count, wall-clock, bits.

        ``bits`` sums *inclusive* deltas (a parent phase's row covers its
        children), ``exclusive_bits`` sums the phase's own traffic only —
        the column whose grand total over every span equals the run's
        total charged bits.
        """
        summary: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = summary.setdefault(
                span.name,
                {
                    "count": 0,
                    "wall_s": 0.0,
                    "bits": 0,
                    "exclusive_bits": 0,
                    "messages": 0,
                    "max_node_bits": 0,
                },
            )
            row["count"] += 1
            row["wall_s"] += span.wall_s
            row["bits"] += span.bits
            row["exclusive_bits"] += span.exclusive_bits
            row["messages"] += span.messages
            row["max_node_bits"] = max(row["max_node_bits"], span.max_node_bits)
        return summary

    def iter_dicts(self):
        """JSON-safe dicts for the whole trace.

        Spans first, then flight events, then attribution lines, then one
        final metrics line — everything the diagnosis engine needs in one
        JSONL file.
        """
        for span in self.spans:
            yield span.to_dict()
        if self.flight is not None:
            yield from self.flight.iter_dicts()
        if self.attribution is not None:
            yield from self.attribution.iter_dicts()
        yield {"type": "metrics", "metrics": self.metrics.to_dict()}

    def write_jsonl(self, path) -> int:
        """Write the trace (spans + events + attribution + metrics) as JSONL."""
        from repro.telemetry.export import write_jsonl

        return write_jsonl(path, self.iter_dicts())

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"SpanTracer(finished={len(self.spans)}, open={len(self._stack)}, "
            f"metrics={self.metrics!r})"
        )


def phases_payload(tracer: SpanTracer) -> dict[str, dict[str, float]]:
    """A JSON-safe per-phase breakdown of a tracer's finished spans.

    One entry per span name: how often the phase ran, its summed
    wall-clock, and its *exclusive* communication bits (so the per-phase
    bits add up to the run total instead of double-counting nested spans;
    the inclusive figure rides along as ``bits_inclusive``).  This is the
    ``phases`` section of the per-cell records of the sweep harness
    (:mod:`repro.sweeps`).
    """
    return {
        name: {
            "count": int(row["count"]),
            "wall_s": round(row["wall_s"], 4),
            "bits": int(row["exclusive_bits"]),
            "bits_inclusive": int(row["bits"]),
            "max_node_bits": int(row["max_node_bits"]),
        }
        for name, row in tracer.phase_summary().items()
    }
