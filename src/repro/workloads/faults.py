"""Fault-script workloads: reusable failure scenarios for the fault engine.

Each builder returns a deterministic :class:`~repro.faults.FaultScript` —
the failure-side counterpart of the value streams in
:mod:`repro.workloads.streams`:

* :func:`crash_storm_script` — a fraction of the field dies at once
  (battery batch failure, a software fault rolling out), optionally
  recovering later;
* :func:`regional_outage_script` — a correlated geographic outage: every
  node within a hop-radius of a centre crashes together (flood, fire,
  jammer), optionally recovering later;
* :func:`churn_script` — background membership churn: every epoch each
  node independently toggles offline/online, the event-stream analogue of
  :class:`~repro.workloads.ChurnStream`;
* :func:`root_failover_script` — the query node itself dies (the E13
  fail-over scenario), optionally riding on background churn;
* :func:`link_storm_script` — a fraction of links (not nodes) fail,
  optionally recovering later.

All builders are deterministic in their ``seed`` and pin the root online —
except the scripted :class:`~repro.faults.RootCrash` of
:func:`root_failover_script`, which exists to kill it.
"""

from __future__ import annotations

from typing import Sequence

from repro._util.randomness import make_rng
from repro._util.validation import (
    require_non_negative,
    require_positive,
    require_probability,
)
from repro.exceptions import ConfigurationError
from repro.faults.events import (
    FaultScript,
    LinkDrop,
    LinkRestore,
    NodeCrash,
    NodeRejoin,
    RegionalOutage,
    RootCrash,
    expand_regional_outage,
)
from repro.network.links import LinkTable, as_link_table

FAULT_SCENARIOS = ("crash_storm", "regional_outage", "churn", "link_storm")
"""Scenario names understood by the E12 experiment harness."""


def crash_storm_script(
    node_ids: Sequence[int],
    epoch: int,
    fraction: float = 0.1,
    seed: int | None = 0,
    rejoin_epoch: int | None = None,
    rejoin_value_max: int = 1 << 16,
    root: int = 0,
) -> FaultScript:
    """Crash a random ``fraction`` of the non-root nodes at ``epoch``.

    With ``rejoin_epoch`` set, every casualty comes back then, each with one
    fresh uniform reading — a storm the field survives twice (losing the
    nodes, then re-absorbing them).
    """
    require_non_negative(epoch, "epoch")
    require_probability(fraction, "fraction")
    if rejoin_epoch is not None and rejoin_epoch <= epoch:
        raise ConfigurationError(
            f"rejoin_epoch {rejoin_epoch} must come after the storm at {epoch}"
        )
    rng = make_rng(seed)
    candidates = sorted(node_id for node_id in node_ids if node_id != root)
    count = round(fraction * len(candidates))
    if fraction > 0:  # a requested storm hits at least one node
        count = max(1, count)
    count = min(len(candidates), count)
    victims = sorted(rng.sample(candidates, count))
    script = FaultScript()
    script.add(epoch, *(NodeCrash(node) for node in victims))
    if rejoin_epoch is not None:
        script.add(
            rejoin_epoch,
            *(
                NodeRejoin(node, items=(rng.randint(0, rejoin_value_max),))
                for node in victims
            ),
        )
    return script


def regional_outage_script(
    links: LinkTable,
    epoch: int,
    radius: int,
    center: int | None = None,
    seed: int | None = 0,
    rejoin_epoch: int | None = None,
    rejoin_value_max: int = 1 << 16,
    root: int = 0,
) -> FaultScript:
    """Crash every node within ``radius`` hops of ``center`` at ``epoch``.

    ``center`` defaults to a seeded random non-root node.  The script
    carries a single :class:`~repro.faults.RegionalOutage` event (the
    engine expands it against the *current* links); the rejoin schedule is
    precomputed from the given ``links`` (``network.links``; an ``nx.Graph``
    converts once), which matches unless links also drop inside the blast
    radius before the outage fires.
    """
    require_non_negative(epoch, "epoch")
    require_non_negative(radius, "radius")
    links = as_link_table(links)
    rng = make_rng(seed)
    nodes = links.node_ids()
    if center is None:
        candidates = [node for node in nodes if node != root]
        if not candidates:
            raise ConfigurationError("graph has no non-root outage candidates")
        center = candidates[rng.randrange(len(candidates))]
    if center not in links:
        raise ConfigurationError(f"outage center {center} is not a graph node")
    script = FaultScript()
    script.add(epoch, RegionalOutage(center=center, radius=radius))
    if rejoin_epoch is not None:
        if rejoin_epoch <= epoch:
            raise ConfigurationError(
                f"rejoin_epoch {rejoin_epoch} must come after the outage at {epoch}"
            )
        victims = expand_regional_outage(
            links, RegionalOutage(center=center, radius=radius), protect=(root,)
        )
        script.add(
            rejoin_epoch,
            *(
                NodeRejoin(
                    crash.node_id, items=(rng.randint(0, rejoin_value_max),)
                )
                for crash in victims
            ),
        )
    return script


def churn_script(
    node_ids: Sequence[int],
    epochs: int,
    churn_rate: float = 0.05,
    start_epoch: int = 1,
    seed: int | None = 0,
    rejoin_value_max: int = 1 << 16,
    root: int = 0,
) -> FaultScript:
    """Background churn: each epoch every node toggles with ``churn_rate``.

    An online node crashes; an offline node rejoins with one fresh uniform
    reading.  This is the event-explicit twin of
    :class:`~repro.workloads.ChurnStream` (which models the same process as
    silent item-list changes); drive the value side with any other stream.
    """
    require_positive(epochs, "epochs")
    require_non_negative(start_epoch, "start_epoch")
    require_probability(churn_rate, "churn_rate")
    rng = make_rng(seed)
    online = {node_id: True for node_id in sorted(node_ids)}
    script = FaultScript()
    for epoch in range(start_epoch, start_epoch + epochs):
        for node_id in sorted(online):
            if node_id == root or rng.random() >= churn_rate:
                continue
            if online[node_id]:
                online[node_id] = False
                script.add(epoch, NodeCrash(node_id))
            else:
                online[node_id] = True
                script.add(
                    epoch,
                    NodeRejoin(
                        node_id, items=(rng.randint(0, rejoin_value_max),)
                    ),
                )
    return script


def storm_under_churn_script(
    node_ids: Sequence[int],
    epochs: int,
    storm_epoch: int,
    storm_fraction: float = 0.1,
    rejoin_epoch: int | None = None,
    churn_rate: float = 0.002,
    seed: int | None = 0,
    rejoin_value_max: int = 1 << 16,
    root: int = 0,
) -> FaultScript:
    """A mass crash riding on realistic background churn.

    The sustained-churn regime is where per-fault-epoch repair cost matters:
    every epoch a small fraction of the field flaps, so the repair pass runs
    constantly on small damage, and then a ``storm_fraction`` crash (with
    optional recovery at ``rejoin_epoch``) lands on top.  This is the
    scenario the wall-clock fault benchmarks race the two repair
    implementations on.
    """
    storm = crash_storm_script(
        node_ids,
        epoch=storm_epoch,
        fraction=storm_fraction,
        seed=seed,
        rejoin_epoch=rejoin_epoch,
        rejoin_value_max=rejoin_value_max,
        root=root,
    )
    churn = churn_script(
        node_ids,
        epochs=max(1, epochs - 1),
        churn_rate=churn_rate,
        start_epoch=1,
        seed=seed,
        rejoin_value_max=rejoin_value_max,
        root=root,
    )
    return storm.merge(churn)


def root_failover_script(
    node_ids: Sequence[int],
    crash_epoch: int,
    epochs: int | None = None,
    churn_rate: float = 0.0,
    seed: int | None = 0,
    rejoin_value_max: int = 1 << 16,
    root: int = 0,
) -> FaultScript:
    """The query node dies at ``crash_epoch`` — the E13 fail-over scenario.

    Schedules a single :class:`~repro.faults.RootCrash` (the event targets
    whoever is root when it fires, so it composes with earlier fail-overs).
    With ``churn_rate`` positive, background membership churn from
    :func:`churn_script` rides underneath for ``epochs`` epochs, so the
    handover is exercised on a field that is already flapping; the original
    ``root`` is pinned online by the churn half as usual — only the scripted
    root crash may kill a query node.
    """
    require_non_negative(crash_epoch, "crash_epoch")
    script = FaultScript()
    script.add(crash_epoch, RootCrash())
    if churn_rate > 0.0:
        if epochs is None:
            raise ConfigurationError(
                "root_failover_script needs epochs when churn_rate is set"
            )
        script = script.merge(
            churn_script(
                node_ids,
                epochs=max(1, epochs - 1),
                churn_rate=churn_rate,
                start_epoch=1,
                seed=seed,
                rejoin_value_max=rejoin_value_max,
                root=root,
            )
        )
    return script


def link_storm_script(
    links: LinkTable,
    epoch: int,
    fraction: float = 0.1,
    seed: int | None = 0,
    restore_epoch: int | None = None,
) -> FaultScript:
    """Drop a random ``fraction`` of the alive links at ``epoch``.

    ``links`` is ``network.links`` (an ``nx.Graph`` converts once).
    """
    require_non_negative(epoch, "epoch")
    require_probability(fraction, "fraction")
    rng = make_rng(seed)
    low, high = as_link_table(links).edges()  # ascending (min, max)
    edges = list(zip(low.tolist(), high.tolist()))
    if not edges:
        raise ConfigurationError("graph has no edges to drop")
    count = round(fraction * len(edges))
    if fraction > 0:  # a requested storm drops at least one link
        count = max(1, count)
    count = min(len(edges), count)
    victims = sorted(rng.sample(edges, count))
    script = FaultScript()
    script.add(epoch, *(LinkDrop(u, v) for u, v in victims))
    if restore_epoch is not None:
        if restore_epoch <= epoch:
            raise ConfigurationError(
                f"restore_epoch {restore_epoch} must come after the storm at {epoch}"
            )
        script.add(restore_epoch, *(LinkRestore(u, v) for u, v in victims))
    return script
