"""The fault-injection engine.

:class:`FaultEngine` owns everything that can go wrong with a running
:class:`~repro.network.SensorNetwork`: it applies scripted events from a
:class:`~repro.faults.events.FaultScript`, draws stochastic crash / rejoin /
link-failure events from per-epoch rates, mutates the network (alive-mask,
item loss, links through ``drop_link`` / ``restore_link``) accordingly, and
drives the configured
:class:`~repro.faults.repair.TreeRepair` so the spanning tree keeps spanning
the alive, root-connected population.  One :meth:`step` per epoch returns a
:class:`FaultReport` describing both the injected events and the repair's
outcome, which the stream runner feeds to the continuous-query engine's
recovery protocol.

Failure *knowledge* is modelled explicitly: with a
:class:`~repro.faults.HeartbeatDetector` configured, a crash is applied in
two stages — the node dies (readings destroyed, transmissions cease) the
epoch the event fires, but the alive-mask flips and the repair runs only
when a heartbeat sweep notices the silence, and every sweep's bits are
charged through the radio models.  Without a detector the engine keeps the
oracle model: detection is instant and free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro._util.randomness import make_rng
from repro._util.validation import require_non_negative, require_probability
from repro.exceptions import ConfigurationError
from repro.faults.detection import HeartbeatDetector
from repro.faults.election import ElectionResult, RootElection
from repro.faults.events import (
    FaultEvent,
    FaultScript,
    LinkDrop,
    LinkRestore,
    NodeCrash,
    NodeRejoin,
    RegionalOutage,
    RootCrash,
    expand_regional_outage,
)
from repro.faults.repair import RepairResult, TreeRepair
from repro.network.simulator import SensorNetwork


@dataclass(frozen=True)
class FaultReport:
    """What one epoch of fault injection did to the network.

    With a :class:`~repro.faults.HeartbeatDetector` configured, ``crashed``
    lists the *physical* crashes of the epoch (readings destroyed, node
    silent) while ``detected`` lists the crashes whose heartbeat silence was
    noticed this epoch — the only ones the repair pass acts on.
    ``detection_latencies`` aligns with ``detected`` (epochs from crash to
    detection) and ``detection_bits`` is the heartbeat traffic charged,
    separate from the repair's control bits.  Without a detector (the
    oracle model) every crash is detected instantly and these fields stay
    empty.
    """

    epoch: int
    crashed: tuple[int, ...]
    rejoined: tuple[int, ...]
    dropped_links: tuple[tuple[int, int], ...]
    restored_links: tuple[tuple[int, int], ...]
    repair: RepairResult
    applied_events: int = 0
    detection_bits: int = 0
    detection_messages: int = 0
    detected: tuple[int, ...] = ()
    detection_latencies: tuple[int, ...] = ()
    #: Nodes that crashed *and* rejoined inside one detection window: the
    #: tree never noticed, but their readings were replaced wholesale, so
    #: stream drivers must treat them as updated this epoch.
    flapped: tuple[int, ...] = ()

    @property
    def election(self) -> ElectionResult | None:
        """The root fail-over this epoch performed, if any.

        Rides on the repair result (the election runs as the first step of
        the repair pass that follows a :class:`~repro.faults.RootCrash`);
        ``None`` on epochs whose root survived.
        """
        return getattr(self.repair, "election", None)

    @property
    def had_faults(self) -> bool:
        return bool(
            self.crashed
            or self.rejoined
            or self.dropped_links
            or self.restored_links
            or self.detected
        )


class FaultEngine:
    """Inject scripted and stochastic faults and keep the tree repaired."""

    def __init__(
        self,
        network: SensorNetwork,
        script: FaultScript | None = None,
        repair: TreeRepair | None = None,
        seed: int | None = 0,
        crash_rate: float = 0.0,
        rejoin_rate: float = 0.0,
        link_drop_rate: float = 0.0,
        rejoin_value_max: int = 1 << 16,
        detector: HeartbeatDetector | None = None,
        election: RootElection | None = None,
    ) -> None:
        self.network = network
        self.script = script if script is not None else FaultScript()
        self.repair = repair if repair is not None else TreeRepair()
        #: How a dead root is replaced: by default a charged
        #: :class:`~repro.faults.RootElection`, handed to the repair pass
        #: per call so a scripted :class:`~repro.faults.RootCrash` fails
        #: over out of the box.  A :class:`TreeRepair` constructed with its
        #: own ``election`` keeps it (the engine never mutates the policy
        #: object, which may be shared); a repair *wrapper* without
        #: election support keeps its own dead-root behaviour.
        self.election = election if election is not None else RootElection()
        self.crash_rate = require_probability(crash_rate, "crash_rate")
        self.rejoin_rate = require_probability(rejoin_rate, "rejoin_rate")
        self.link_drop_rate = require_probability(link_drop_rate, "link_drop_rate")
        self.rejoin_value_max = require_non_negative(
            rejoin_value_max, "rejoin_value_max"
        )
        #: ``None`` keeps the oracle model of PR 3: crashes are known — for
        #: free — the epoch they happen.  A :class:`HeartbeatDetector`
        #: charges the knowledge instead: crashes stay *undetected* (the
        #: node a silent zombie whose readings are already gone) until the
        #: next heartbeat sweep notices the missing liveness bit.
        self.detector = detector
        self._undetected: dict[int, int] = {}
        #: Flight-event id of each pending crash's injection, so the
        #: eventual ``detect.miss`` can chain to it explicitly.
        self._crash_events: dict[int, int] = {}
        #: Explicit cause for injections applied *on behalf of* another
        #: event (a regional outage's expanded crashes chain to the outage).
        self._injection_cause: int | None = None
        self._epoch = 0
        self._rng = make_rng(seed)

    @property
    def dropped_edges(self) -> set[tuple[int, int]]:
        """Links that are down right now, as ``(min, max)`` keys.

        Read from the network's link table, the one owner of link state
        (treat as read-only).
        """
        return self.network.links.dropped

    @property
    def undetected_dead(self) -> frozenset[int]:
        """Nodes that crashed but whose failure has not been detected yet.

        They still sit in the spanning tree (silent, with destroyed
        readings); :func:`~repro.faults.run_faulty_stream` drops their
        sensor updates, since a dead sensor reads nothing.
        """
        return frozenset(self._undetected)

    # ------------------------------------------------------------------ #
    # Epoch driver
    # ------------------------------------------------------------------ #
    def step(
        self, epoch: int, extra_events: Sequence[FaultEvent] = ()
    ) -> FaultReport:
        """Apply epoch ``epoch``'s events (scripted, extra, then stochastic),
        repair the tree, and report what happened.

        ``extra_events`` lets callers feed in events produced elsewhere —
        e.g. a :class:`~repro.workloads.ChurnStream` running in explicit
        event mode.  A quiet epoch skips the repair pass entirely: a static
        field cannot heal or break on its own, and detached survivors are
        reconsidered by the full repair the next event triggers.
        """
        telemetry = self.network.telemetry
        if telemetry.enabled and telemetry.flight is not None:
            # Each epoch's causal chains start fresh; only explicit links
            # (pending-crash ids) cross the boundary.
            telemetry.flight.new_epoch()
        events = list(self.script.events_at(epoch))
        events.extend(extra_events)
        events.extend(self._stochastic_events())
        crashed: list[int] = []
        rejoined: list[int] = []
        dropped: list[tuple[int, int]] = []
        restored: list[tuple[int, int]] = []
        flaps: list[int] = []
        self._epoch = epoch
        for event in events:
            self._apply(event, crashed, rejoined, dropped, restored, flaps)

        detection_bits = 0
        detection_messages = 0
        detected: tuple[int, ...] = ()
        latencies: tuple[int, ...] = ()
        detector = self.detector
        if detector is not None and detector.sweep_due(epoch):
            # The sweep is a standing cost: it is charged whether or not
            # anything is wrong — that is the price of knowing.
            detection_bits, detection_messages = detector.charge_sweep(
                self.network, set(self._undetected)
            )
            detected, latencies = self._detect_pending(epoch)

        # A flap (crash and rejoin both inside one detection window) never
        # touches the tree, so it does not force a repair pass on its own.
        revivals = len(rejoined) - len(flaps)
        # A dead root always forces the repair pass: the election + seeded
        # re-attachment it triggers is the fail-over (the root's silence is
        # self-announcing — its children expect the epoch tick from it — so
        # even a charged detector learns of it immediately and for free;
        # what is charged is the election response itself).
        root_dead = not self.network.is_alive(self.network.root_id)
        if detector is None:
            needs_repair = bool(crashed or rejoined or dropped or restored)
        else:
            needs_repair = bool(
                detected or revivals or dropped or restored or root_dead
            )
        if detector is not None and needs_repair and self._undetected:
            # A repair pass doubles as a liveness probe: its adoption
            # handshakes and pointer flips cannot complete against dead
            # nodes, so running one reveals every pending crash — at the
            # repair's already-charged cost, not the heartbeat's.  Without
            # this, a zombie would take part in the repair as a live
            # transmitter, quietly ending its detection window for free.
            probed, probe_latencies = self._detect_pending(epoch)
            detected = detected + probed
            latencies = latencies + probe_latencies
        if needs_repair:
            if (
                isinstance(self.repair, TreeRepair)
                and self.repair.election is None
            ):
                repair = self.repair.repair(self.network, election=self.election)
            else:
                repair = self.repair.repair(self.network)
        else:
            repair = _noop_repair()
        return FaultReport(
            epoch=epoch,
            crashed=tuple(crashed),
            rejoined=tuple(rejoined),
            dropped_links=tuple(dropped),
            restored_links=tuple(restored),
            repair=repair,
            applied_events=len(events),
            detection_bits=detection_bits,
            detection_messages=detection_messages,
            detected=detected,
            detection_latencies=latencies,
            flapped=tuple(flaps),
        )

    def _detect_pending(self, epoch: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Reveal every pending crash: kill, clear, report with latencies."""
        if not self._undetected:
            return (), ()
        victims = sorted(self._undetected)
        latencies = tuple(epoch - self._undetected[node] for node in victims)
        telemetry = self.network.telemetry
        for node, latency in zip(victims, latencies):
            self.network.kill_node(node)
            if telemetry.enabled:
                telemetry.event(
                    "detect.miss",
                    node=node,
                    cause=self._crash_events.pop(node, None),
                    epoch=epoch,
                    latency=latency,
                )
        self._undetected.clear()
        return tuple(victims), latencies

    def _emit_injection(self, fault: str, node: int | None, **attributes) -> int | None:
        """Record a ``fault.injected`` flight event (``None`` when disabled)."""
        telemetry = self.network.telemetry
        if not telemetry.enabled:
            return None
        return telemetry.event(
            "fault.injected",
            node=node,
            cause=self._injection_cause,
            epoch=self._epoch,
            fault=fault,
            **attributes,
        )

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #
    def _apply(
        self,
        event: FaultEvent,
        crashed: list[int],
        rejoined: list[int],
        dropped: list[tuple[int, int]],
        restored: list[tuple[int, int]],
        flaps: list[int],
    ) -> None:
        network = self.network
        if isinstance(event, RootCrash):
            # The current root dies, whoever that is.  No detection window:
            # the root's silence at the epoch tick is observed by its own
            # children for free (like link failures), and the charged
            # response — election, re-rooting, re-attachment — runs in this
            # epoch's repair pass.
            node_id = network.root_id
            if not network.is_alive(node_id):
                return  # a double blow in one epoch changes nothing
            network.kill_node(node_id, allow_root=True)
            crashed.append(node_id)
            self._emit_injection("RootCrash", node_id)
        elif isinstance(event, NodeCrash):
            node_id = event.node_id
            if not network.is_alive(node_id) or node_id in self._undetected:
                return
            if node_id == network.root_id:
                # A crash is a crash: a script written before a fail-over
                # (or background churn) may hit the node that meanwhile won
                # an election.  Whoever is root dies root-style — applied
                # immediately, detection-free, election to follow.
                network.kill_node(node_id, allow_root=True)
            elif self.detector is None:
                network.kill_node(node_id)
            else:
                # The node dies *now* — its readings are gone — but nobody
                # knows until a heartbeat sweep misses it, so the alive-mask
                # (and the repair) waits for detection.
                network.assign_items({node_id: []})
                self._undetected[node_id] = self._epoch
                event_id = self._emit_injection(
                    "NodeCrash", node_id, detected=False
                )
                if event_id is not None:
                    self._crash_events[node_id] = event_id
                crashed.append(node_id)
                return
            crashed.append(node_id)
            self._emit_injection("NodeCrash", node_id, detected=True)
        elif isinstance(event, NodeRejoin):
            node_id = event.node_id
            if node_id in self._undetected:
                # A flap: the node rebooted inside the detection window.
                # Its parent never missed a heartbeat, the tree is intact —
                # only the readings changed.
                del self._undetected[node_id]
                self._crash_events.pop(node_id, None)
                network.assign_items({node_id: event.items})
                rejoined.append(node_id)
                flaps.append(node_id)
                self._emit_injection("NodeRejoin", node_id, flap=True)
            elif not network.is_alive(node_id):
                network.revive_node(node_id)
                network.assign_items({node_id: event.items})
                rejoined.append(node_id)
                self._emit_injection("NodeRejoin", node_id, flap=False)
        elif isinstance(event, RegionalOutage):
            outage_id = self._emit_injection(
                "RegionalOutage", event.center, radius=event.radius
            )
            previous_cause = self._injection_cause
            if outage_id is not None:
                self._injection_cause = outage_id
            try:
                for crash in expand_regional_outage(
                    network.links, event, protect=(network.root_id,)
                ):
                    self._apply(crash, crashed, rejoined, dropped, restored, flaps)
            finally:
                self._injection_cause = previous_cause
        elif isinstance(event, LinkDrop):
            edge = event.edge
            if network.links.has(*edge):
                network.drop_link(*edge)
                dropped.append(edge)
                self._emit_injection("LinkDrop", None, u=edge[0], v=edge[1])
        elif isinstance(event, LinkRestore):
            edge = event.edge
            if edge in network.links.dropped:
                network.restore_link(*edge)
                restored.append(edge)
                self._emit_injection("LinkRestore", None, u=edge[0], v=edge[1])
        else:
            raise ConfigurationError(f"unknown fault event {event!r}")

    def _stochastic_events(self) -> list[FaultEvent]:
        """Draw this epoch's random events (deterministic in the seed).

        Nodes are visited in ascending id order so twin engines with equal
        seeds inject identical faults regardless of execution mode.
        """
        events: list[FaultEvent] = []
        network = self.network
        rng = self._rng
        if self.crash_rate > 0.0:
            undetected = self._undetected
            for node_id in network.alive_node_ids():
                if node_id == network.root_id or node_id in undetected:
                    continue
                if rng.random() < self.crash_rate:
                    events.append(NodeCrash(node_id))
        if self.rejoin_rate > 0.0:
            for node_id in network.dead_node_ids():
                if rng.random() < self.rejoin_rate:
                    events.append(
                        NodeRejoin(
                            node_id,
                            items=(rng.randint(0, self.rejoin_value_max),),
                        )
                    )
        if self.link_drop_rate > 0.0:
            low, high = network.links.edges()  # ascending (min, max)
            for u, v in zip(low.tolist(), high.tolist()):
                if rng.random() < self.link_drop_rate:
                    events.append(LinkDrop(u, v))
        return events


def _noop_repair() -> RepairResult:
    return RepairResult(
        strategy="noop",
        rebuilt=False,
        parent_changed=(),
        child_losses=(),
        removed=(),
        detached=(),
        control_bits=0,
        control_messages=0,
        rounds=0,
    )
