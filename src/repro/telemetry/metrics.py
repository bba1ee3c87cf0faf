"""The metrics registry: counters, gauges and histograms with two exporters.

One :class:`MetricsRegistry` holds every named metric of a run.  Metrics are
created lazily on first touch and carry an optional label set (``protocol``,
``phase``, ``query``, …), so the registry doubles as the per-ledger-key bit
breakdown and the per-phase wall-clock table.  Two render targets:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  histogram series), so a run's metrics can be scraped or diffed with
  standard tooling;
* :meth:`MetricsRegistry.render_markdown` — the human dashboard the
  ``scripts/telemetry_report.py`` CLI and ``examples/observability.py``
  print.

Like every telemetry component, the registry never touches the
communication ledger: it is an observer of the cost model, not a payer
into it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.exceptions import ConfigurationError
from repro.telemetry.recorder import flatten_labels

#: Default histogram bucket boundaries: four decades around "seconds of
#: wall-clock and handfuls-to-millions of bits" — wide enough that both the
#: phase timings and the bit-volume observations land inside the ladder.
DEFAULT_BUCKETS = (
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
)

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:.]*$")
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")

LabelKey = tuple[tuple[str, str], ...]


def _prom_name(name: str) -> str:
    """Metric name mangled to the Prometheus charset (dots become _)."""
    return _PROM_BAD.sub("_", name)


def _prom_labels(key: LabelKey, extra: str | None = None) -> str:
    parts = [f'{label}="{value}"' for label, value in key]
    if extra is not None:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


@dataclass
class HistogramState:
    """Count/sum/min/max plus cumulative bucket counts for one label set."""

    buckets: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """All counters, gauges and histograms of one instrumented run."""

    def __init__(self, histogram_buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        buckets = tuple(sorted(float(bound) for bound in histogram_buckets))
        if not buckets:
            raise ConfigurationError("histogram_buckets must not be empty")
        self._default_buckets = buckets
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._gauges: dict[str, dict[LabelKey, float]] = {}
        self._histograms: dict[str, dict[LabelKey, HistogramState]] = {}
        self._histogram_buckets: dict[str, tuple[float, ...]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_OK.match(name):
            raise ConfigurationError(
                f"invalid metric name {name!r}; use letters, digits, '_', ':', '.'"
            )
        return name

    def count(self, name: str, value: int | float = 1, **labels: str) -> None:
        """Add ``value`` (non-negative) to the counter ``name``."""
        if value < 0:
            raise ConfigurationError(
                f"counter {name!r} cannot decrease (got {value})"
            )
        family = self._counters.setdefault(self._check_name(name), {})
        key = flatten_labels(labels)
        family[key] = family.get(key, 0) + value

    def gauge(self, name: str, value: int | float, **labels: str) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        family = self._gauges.setdefault(self._check_name(name), {})
        family[flatten_labels(labels)] = value

    def declare_histogram(self, name: str, buckets: Iterable[float]) -> None:
        """Pin explicit bucket bounds for ``name`` (before first observation)."""
        if name in self._histograms:
            raise ConfigurationError(
                f"histogram {name!r} already has observations; declare first"
            )
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ConfigurationError("histogram buckets must not be empty")
        self._histogram_buckets[self._check_name(name)] = bounds

    def observe(self, name: str, value: int | float, **labels: str) -> None:
        """Record one observation into the histogram ``name``."""
        family = self._histograms.setdefault(self._check_name(name), {})
        key = flatten_labels(labels)
        state = family.get(key)
        if state is None:
            bounds = self._histogram_buckets.get(name, self._default_buckets)
            state = family[key] = HistogramState(buckets=bounds)
        state.observe(float(value))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def counter_value(self, name: str, **labels: str) -> float:
        """Current value of one counter series (0 if never touched)."""
        return self._counters.get(name, {}).get(flatten_labels(labels), 0)

    def gauge_value(self, name: str, **labels: str) -> float | None:
        """Current value of one gauge series (``None`` if never set)."""
        return self._gauges.get(name, {}).get(flatten_labels(labels))

    def histogram(self, name: str, **labels: str) -> HistogramState | None:
        """The histogram state of one series (``None`` if never observed)."""
        return self._histograms.get(name, {}).get(flatten_labels(labels))

    def counter_series(self, name: str) -> dict[LabelKey, float]:
        """Every label set of counter ``name`` with its value."""
        return dict(self._counters.get(name, {}))

    # ------------------------------------------------------------------ #
    # Exporters
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-safe dump of every metric (the JSONL ``metrics`` line)."""

        def series(family: Mapping[LabelKey, float]) -> list[dict]:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(family.items())
            ]

        return {
            "counters": {
                name: series(family)
                for name, family in sorted(self._counters.items())
            },
            "gauges": {
                name: series(family)
                for name, family in sorted(self._gauges.items())
            },
            "histograms": {
                name: [
                    {
                        "labels": dict(key),
                        "count": state.count,
                        "sum": state.total,
                        "min": state.minimum if state.count else None,
                        "max": state.maximum if state.count else None,
                        "buckets": {
                            str(bound): cumulative
                            for bound, cumulative in zip(
                                state.buckets, state.counts
                            )
                        },
                    }
                    for key, state in sorted(family.items())
                ]
                for name, family in sorted(self._histograms.items())
            },
        }

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """The Prometheus text exposition format (one family per metric)."""
        lines: list[str] = []
        for name, family in sorted(self._counters.items()):
            metric = prefix + _prom_name(name)
            lines.append(f"# TYPE {metric} counter")
            for key, value in sorted(family.items()):
                lines.append(f"{metric}{_prom_labels(key)} {_format(value)}")
        for name, family in sorted(self._gauges.items()):
            metric = prefix + _prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            for key, value in sorted(family.items()):
                lines.append(f"{metric}{_prom_labels(key)} {_format(value)}")
        for name, family in sorted(self._histograms.items()):
            metric = prefix + _prom_name(name)
            lines.append(f"# TYPE {metric} histogram")
            for key, state in sorted(family.items()):
                for bound, cumulative in zip(state.buckets, state.counts):
                    le_label = 'le="' + _format(bound) + '"'
                    labels = _prom_labels(key, le_label)
                    lines.append(f"{metric}_bucket{labels} {cumulative}")
                inf_labels = _prom_labels(key, 'le="+Inf"')
                lines.append(f"{metric}_bucket{inf_labels} {state.count}")
                lines.append(
                    f"{metric}_sum{_prom_labels(key)} {_format(state.total)}"
                )
                lines.append(f"{metric}_count{_prom_labels(key)} {state.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_markdown(self) -> str:
        """The human dashboard: one markdown table per metric kind."""
        sections: list[str] = []
        if self._counters:
            rows = ["| counter | labels | value |", "| --- | --- | ---: |"]
            for name, family in sorted(self._counters.items()):
                for key, value in sorted(family.items()):
                    rows.append(
                        f"| `{name}` | {_labels_cell(key)} | {_format(value)} |"
                    )
            sections.append("\n".join(rows))
        if self._gauges:
            rows = ["| gauge | labels | value |", "| --- | --- | ---: |"]
            for name, family in sorted(self._gauges.items()):
                for key, value in sorted(family.items()):
                    rows.append(
                        f"| `{name}` | {_labels_cell(key)} | {_format(value)} |"
                    )
            sections.append("\n".join(rows))
        if self._histograms:
            rows = [
                "| histogram | labels | count | mean | min | max |",
                "| --- | --- | ---: | ---: | ---: | ---: |",
            ]
            for name, family in sorted(self._histograms.items()):
                for key, state in sorted(family.items()):
                    rows.append(
                        f"| `{name}` | {_labels_cell(key)} | {state.count} | "
                        f"{_format(state.mean)} | "
                        f"{_format(state.minimum) if state.count else '-'} | "
                        f"{_format(state.maximum) if state.count else '-'} |"
                    )
            sections.append("\n".join(rows))
        if not sections:
            return "(no metrics recorded)\n"
        return "\n\n".join(sections) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def _format(value: float) -> str:
    """Integers render without a trailing ``.0``; floats at 6 significant digits."""
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return json.dumps(value)


def _labels_cell(key: LabelKey) -> str:
    if not key:
        return "-"
    return ", ".join(f"{label}={value}" for label, value in key)
