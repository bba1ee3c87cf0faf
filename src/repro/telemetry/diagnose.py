"""Causal diagnosis of telemetry traces: *why* did epoch 37 cost so much?

The diagnosis engine closes the loop the flight recorder and the
attribution sink open: it ingests one TELEMETRY JSONL trace (spans +
``"event"`` lines + ``"attribution"`` lines, as written by
:meth:`~repro.telemetry.SpanTracer.write_jsonl`), builds per-epoch series
(bits, answer error, detection latency), flags anomalous epochs with a
**rolling median / MAD** detector — robust to the fault-heavy regimes
where means and variances are useless — and for each flagged epoch walks
the recorded ``cause_event_id`` chain backwards to a root cause, naming
the top per-node hotspot along the way::

    epoch 6: bits 18432 (baseline 512.0, 35.9x MAD)
      RootCrash at e6 -> election 35->34 -> adoption of 12 nodes
      top hotspot: node 34 (61% of epoch node-bits)

The same detector doubles as the CI trajectory gate: ``scripts/diagnose.py
--strict`` fails when a flagged epoch has *no* attributable cause chain
(a cost spike nothing in the flight ring explains), and
:func:`verdict` summarises the run as a JSON-safe record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

#: Event kinds ordered from most to least *explanatory*: when several
#: events share a flagged epoch, the chain is anchored at the highest-
#: priority one (a rebuild fallback explains a spike better than the
#: suppression flip it caused).
KIND_PRIORITY = (
    "repair.rebuild",
    "election",
    "repair.adoption",
    "cache.evict",
    "delta.burst",
    "detect.miss",
    "suppression.flip",
    "fault.injected",
)

_KIND_RANK = {kind: rank for rank, kind in enumerate(KIND_PRIORITY)}


def _median(ordered: list[float]) -> float:
    size = len(ordered)
    mid = size // 2
    if size % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Anomaly:
    """One flagged epoch of one metric series, with its causal chain."""

    epoch: int
    metric: str
    value: float
    #: Trailing-window median the value was compared against.
    baseline: float
    #: Robust z-score: ``|value - baseline| / max(MAD, floor)``.
    deviation: float
    #: Causal chain, root cause first, as raw event dicts.
    chain: list[dict] = field(default_factory=list)
    #: ``(node, bits, share)`` of the epoch's hottest node, if attributed.
    hotspot: tuple[int, int, float] | None = None

    @property
    def attributed(self) -> bool:
        """Whether a cause chain was found for this anomaly."""
        return bool(self.chain)

    @property
    def root_cause(self) -> dict | None:
        """The chain's first event — ideally a ``fault.injected``."""
        return self.chain[0] if self.chain else None

    def render(self) -> str:
        """The human "why" line(s) for this anomaly."""
        head = (
            f"epoch {self.epoch}: {self.metric} {self.value:g} "
            f"(baseline {self.baseline:g}, {self.deviation:.1f}x MAD)"
        )
        if not self.chain:
            return head + "\n  no attributable cause chain in the flight ring"
        lines = [head, "  " + " -> ".join(_describe(e) for e in self.chain)]
        if self.hotspot is not None:
            node, bits, share = self.hotspot
            lines.append(
                f"  top hotspot: node {node} ({bits} bits, "
                f"{share:.0%} of epoch node-bits)"
            )
        return "\n".join(lines)


def _describe(event: dict) -> str:
    """One phrase per event for the chain arrow line."""
    kind = event.get("kind", "?")
    node = event.get("node")
    epoch = event.get("epoch")
    attrs = event.get("attributes", {})
    at = f" at e{epoch}" if epoch is not None else ""
    if kind == "fault.injected":
        fault = attrs.get("fault", "fault")
        where = f"(node {node})" if node is not None else ""
        if "radius" in attrs:
            where = f"(center {node}, radius {attrs['radius']})"
        if "count" in attrs:
            where = f"({attrs['count']} nodes)"
        return f"{fault}{where}{at}"
    if kind == "detect.miss":
        latency = attrs.get("latency")
        tail = f" after {latency} epoch(s)" if latency is not None else ""
        return f"heartbeat miss on node {node}{tail}{at}"
    if kind == "repair.adoption":
        size = attrs.get("unit_size")
        tail = f" of {size} node(s)" if size is not None else ""
        return f"adoption{tail} via node {node}{at}"
    if kind == "repair.rebuild":
        size = attrs.get("component_size")
        tail = f" over {size} node(s)" if size is not None else ""
        return f"rebuild fallback{tail}{at}"
    if kind == "election":
        old = attrs.get("old_root")
        return f"election {old}->{node}{at}"
    if kind == "cache.evict":
        count = attrs.get("count", 1)
        site = attrs.get("site", "")
        tail = f" [{site}]" if site else ""
        return f"{count} cache eviction(s){tail}{at}"
    if kind == "delta.burst":
        return f"delta burst{at}"
    if kind == "suppression.flip":
        direction = attrs.get("direction", "flipped")
        return f"suppression {direction}{at}"
    return f"{kind}{at}"


def rolling_mad_anomalies(
    series: dict[int, float],
    *,
    window: int = 5,
    threshold: float = 4.0,
    min_history: int = 3,
) -> list[tuple[int, float, float, float]]:
    """Flag points far above their trailing median, in MAD units.

    For each epoch (ascending), the baseline is the median of up to
    ``window`` *preceding* values and the scale is their median absolute
    deviation.  The effective MAD is floored at ``max(1.0,
    0.05 * |baseline|, 0.05 * max(recent))`` — the trailing-max term keeps
    a periodic low/high series (heartbeat sweeps every other epoch) from
    flagging its every high phase once a real spike sits in the window.
    Returns ``(epoch, value, baseline, deviation)`` for points with
    ``deviation > threshold``, needing at least ``min_history`` prior
    points.  Only *upward* excursions flag: cheap epochs are good news,
    not anomalies.
    """
    flagged = []
    epochs = sorted(series)
    history: list[float] = []
    for epoch in epochs:
        value = series[epoch]
        if len(history) >= min_history:
            recent = sorted(history[-window:])
            baseline = _median(recent)
            mad = _median(sorted(abs(v - baseline) for v in recent))
            scale = max(mad, 1.0, 0.05 * abs(baseline), 0.05 * recent[-1])
            deviation = (value - baseline) / scale
            if deviation > threshold:
                flagged.append((epoch, value, baseline, deviation))
        history.append(value)
    return flagged


def build_series(records: Iterable[dict]) -> dict[str, dict[int, float]]:
    """Per-epoch metric series out of raw trace records.

    ``bits`` sums ``epoch`` spans per their ``epoch`` attribute (summing
    tolerates traces holding several runs over the same epoch numbers);
    ``detect.latency`` takes the worst heartbeat-miss latency per epoch.
    Unknown record types pass through untouched.
    """
    bits: dict[int, float] = {}
    latency: dict[int, float] = {}
    for record in records:
        rtype = record.get("type")
        if rtype == "span" and record.get("name") == "epoch":
            epoch = record.get("attributes", {}).get("epoch")
            if epoch is not None:
                epoch = int(epoch)
                bits[epoch] = bits.get(epoch, 0.0) + float(record.get("bits", 0))
        elif rtype == "event" and record.get("kind") == "detect.miss":
            epoch = record.get("epoch")
            value = record.get("attributes", {}).get("latency")
            if epoch is not None and value is not None:
                epoch = int(epoch)
                latency[epoch] = max(latency.get(epoch, 0.0), float(value))
    series: dict[str, dict[int, float]] = {}
    if bits:
        series["bits"] = bits
    if latency:
        series["detect.latency"] = latency
    return series


def _chain_for_epoch(
    epoch: int,
    events_by_epoch: dict[int, list[dict]],
    events_by_id: dict[int, dict],
    *,
    horizon: int,
) -> list[dict]:
    """Pick the epoch's most explanatory event and walk its causes back.

    Looks at the flagged epoch first, then up to ``horizon`` epochs back
    (a spike often pays for a fault injected earlier — detection latency
    is a real cost in this pipeline).  Returns the chain root-first, or
    ``[]`` when nothing in the ring explains the epoch.
    """
    terminal = None
    for lookback in range(horizon + 1):
        candidates = events_by_epoch.get(epoch - lookback)
        if candidates:
            terminal = min(
                candidates,
                key=lambda e: _KIND_RANK.get(e.get("kind"), len(KIND_PRIORITY)),
            )
            break
    if terminal is None:
        return []
    chain = [terminal]
    seen = {terminal.get("event_id")}
    cause_id = terminal.get("cause_event_id")
    while cause_id is not None and cause_id not in seen:
        cause = events_by_id.get(cause_id)
        if cause is None:
            break
        chain.append(cause)
        seen.add(cause_id)
        cause_id = cause.get("cause_event_id")
    chain.reverse()
    return chain


@dataclass
class Diagnosis:
    """The full result: anomalies (with chains), series, raw records."""

    anomalies: list[Anomaly]
    series: dict[str, dict[int, float]]
    events: list[dict]
    attribution: list[dict]

    @property
    def unattributed(self) -> list[Anomaly]:
        """Flagged epochs with no cause chain — the strict-gate failures."""
        return [a for a in self.anomalies if not a.attributed]

    def worst(self) -> Anomaly | None:
        """The most deviant anomaly, or ``None`` on a clean run."""
        if not self.anomalies:
            return None
        return max(self.anomalies, key=lambda a: a.deviation)

    def render(self) -> str:
        """The complete "why" report."""
        if not self.anomalies:
            return "no anomalous epochs: every metric stayed within MAD bounds"
        blocks = [anomaly.render() for anomaly in self.anomalies]
        summary = (
            f"{len(self.anomalies)} anomalous epoch-metric(s), "
            f"{len(self.unattributed)} unattributed"
        )
        return "\n".join([summary, ""] + blocks)


def _hotspot_from_attribution(
    epoch: int, attribution_by_epoch: dict[int, dict]
) -> tuple[int, int, float] | None:
    record = attribution_by_epoch.get(epoch)
    if record is None:
        return None
    hotspots = record.get("hotspots") or []
    if not hotspots:
        return None
    node, bits = hotspots[0]
    node_bits = record.get("node_bits") or 0
    share = bits / node_bits if node_bits else 0.0
    return int(node), int(bits), share


def diagnose(
    records: Iterable[dict],
    *,
    window: int = 5,
    threshold: float = 4.0,
    horizon: int = 3,
) -> Diagnosis:
    """Run the full pipeline: series → MAD detector → causal chains.

    ``records`` is an iterable of parsed trace dicts (from
    :func:`~repro.telemetry.read_jsonl` or
    :meth:`~repro.telemetry.SpanTracer.iter_dicts`).
    """
    records = list(records)
    events = [r for r in records if r.get("type") == "event"]
    attribution = [r for r in records if r.get("type") == "attribution"]
    series = build_series(records)

    events_by_epoch: dict[int, list[dict]] = {}
    events_by_id: dict[int, dict] = {}
    for event in events:
        if event.get("epoch") is not None:
            events_by_epoch.setdefault(int(event["epoch"]), []).append(event)
        if event.get("event_id") is not None:
            events_by_id[int(event["event_id"])] = event
    attribution_by_epoch = {
        int(r["epoch"]): r for r in attribution if r.get("epoch") is not None
    }

    anomalies = []
    for metric, points in series.items():
        for epoch, value, baseline, deviation in rolling_mad_anomalies(
            points, window=window, threshold=threshold
        ):
            anomalies.append(
                Anomaly(
                    epoch=epoch,
                    metric=metric,
                    value=value,
                    baseline=baseline,
                    deviation=deviation,
                    chain=_chain_for_epoch(
                        epoch, events_by_epoch, events_by_id, horizon=horizon
                    ),
                    hotspot=_hotspot_from_attribution(
                        epoch, attribution_by_epoch
                    ),
                )
            )
    anomalies.sort(key=lambda a: (a.epoch, a.metric))
    return Diagnosis(
        anomalies=anomalies,
        series=series,
        events=events,
        attribution=attribution,
    )


def verdict(diagnosis: Diagnosis) -> dict[str, Any]:
    """The anomaly-detector summary of a run, JSON-safe for reports."""
    root_kinds: dict[str, int] = {}
    for anomaly in diagnosis.anomalies:
        root = anomaly.root_cause
        if root is not None:
            kind = root.get("kind", "?")
            root_kinds[kind] = root_kinds.get(kind, 0) + 1
    return {
        "anomalous_epochs": sorted({a.epoch for a in diagnosis.anomalies}),
        "anomalies": len(diagnosis.anomalies),
        "attributed": sum(1 for a in diagnosis.anomalies if a.attributed),
        "unattributed": len(diagnosis.unattributed),
        "root_cause_kinds": root_kinds,
    }
