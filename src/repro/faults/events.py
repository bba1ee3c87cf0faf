"""The fault vocabulary and deterministic fault schedules.

Faults are plain frozen dataclasses so scripts are hashable, comparable and
trivially serialisable; the :class:`FaultEngine` is the only component that
*applies* them.  A :class:`FaultScript` maps epoch numbers to event lists —
the scripted half of fault injection (the stochastic half lives on the
engine as per-epoch rates).  Scripts compose with :meth:`FaultScript.merge`,
so a scenario can layer, say, a regional outage on top of background churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro._util.validation import require_non_negative
from repro.exceptions import ConfigurationError
from repro.network.links import as_link_table


@dataclass(frozen=True)
class FaultEvent:
    """Base class for all injectable fault events."""


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Node ``node_id`` fails: readings lost, radio silent, tree orphaned."""

    node_id: int


@dataclass(frozen=True)
class NodeRejoin(FaultEvent):
    """A crashed node comes back with fresh readings.

    ``items`` is the reading multiset the node rejoins with (a recovered node
    re-senses; it does not remember pre-crash values).
    """

    node_id: int
    items: tuple[int, ...] = ()


@dataclass(frozen=True)
class RootCrash(FaultEvent):
    """Whoever is the query root *when this fires* crashes.

    The one failure the simulator used to forbid.  The event carries no node
    id on purpose: after an earlier fail-over the root has moved, and a
    scripted second blow should hit the current query node, not a stale id.
    The engine responds with a charged :class:`~repro.faults.RootElection`
    (highest surviving id wins), re-roots the tree at the winner and
    re-attaches the remaining fragments — all in the same epoch, all billed.
    """


@dataclass(frozen=True)
class LinkDrop(FaultEvent):
    """The link between ``u`` and ``v`` fails (until restored)."""

    u: int
    v: int

    @property
    def edge(self) -> tuple[int, int]:
        """The edge in canonical (min, max) order."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


@dataclass(frozen=True)
class LinkRestore(FaultEvent):
    """A previously dropped edge comes back."""

    u: int
    v: int

    @property
    def edge(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


@dataclass(frozen=True)
class RegionalOutage(FaultEvent):
    """Every node within ``radius`` graph hops of ``center`` crashes.

    The engine expands the ball over the *current* graph (dropped links do
    not conduct the outage) and skips the root, which cannot crash.
    """

    center: int
    radius: int


@dataclass
class FaultScript:
    """A deterministic epoch-indexed schedule of fault events.

    Events scheduled for the same epoch are applied in insertion order.
    """

    _events: dict[int, list[FaultEvent]] = field(default_factory=dict)

    def __init__(
        self, events: Mapping[int, Sequence[FaultEvent]] | None = None
    ) -> None:
        self._events = {}
        if events:
            for epoch, batch in events.items():
                self.add(epoch, *batch)

    def add(self, epoch: int, *events: FaultEvent) -> "FaultScript":
        """Schedule ``events`` at ``epoch``; returns ``self`` for chaining."""
        require_non_negative(epoch, "epoch")
        for event in events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"expected a FaultEvent, got {event!r}"
                )
        if events:
            self._events.setdefault(epoch, []).extend(events)
        return self

    def events_at(self, epoch: int) -> list[FaultEvent]:
        """The events scheduled for ``epoch`` (empty list if none)."""
        return list(self._events.get(epoch, ()))

    def merge(self, other: "FaultScript") -> "FaultScript":
        """A new script with both schedules (``self``'s events first per epoch)."""
        merged = FaultScript()
        for epoch in sorted(set(self._events) | set(other._events)):
            merged.add(epoch, *self._events.get(epoch, ()))
            merged.add(epoch, *other._events.get(epoch, ()))
        return merged

    @property
    def horizon(self) -> int:
        """One past the last scheduled epoch (0 for an empty script)."""
        return max(self._events, default=-1) + 1

    def epochs(self) -> list[int]:
        """Epochs with at least one scheduled event, ascending."""
        return sorted(self._events)

    def __len__(self) -> int:
        return sum(len(batch) for batch in self._events.values())

    def __iter__(self) -> Iterator[tuple[int, FaultEvent]]:
        for epoch in sorted(self._events):
            for event in self._events[epoch]:
                yield epoch, event

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"FaultScript(events={len(self)}, epochs={len(self._events)}, "
            f"horizon={self.horizon})"
        )


def expand_regional_outage(
    links, event: RegionalOutage, protect: Iterable[int] = ()
) -> list[NodeCrash]:
    """Expand a :class:`RegionalOutage` into per-node crashes via a BFS over
    the alive links.

    ``links`` is a :class:`~repro.network.links.LinkTable` (normally
    ``network.links``; an ``nx.Graph`` converts once).  ``protect`` lists
    nodes that never crash (the root).  Exposed so scripts and tests can
    precompute the blast radius of an outage.
    """
    require_non_negative(event.radius, "radius")
    links = as_link_table(links)
    if event.center not in links:
        raise ConfigurationError(
            f"outage center {event.center} is not a node of the graph"
        )
    protected = set(protect)
    ball = {event.center}
    frontier = [event.center]
    for _ in range(event.radius):
        next_frontier: list[int] = []
        for node in frontier:
            for neighbor in links.neighbors(node):
                if neighbor not in ball:
                    ball.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return [NodeCrash(node) for node in sorted(ball) if node not in protected]
