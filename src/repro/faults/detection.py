"""Charged failure detection: heartbeats, detection latency, zombie windows.

The PR 3 fault engine assumed an *oracle* failure detector: a crash was
known — for free — the epoch it happened, so the repair-vs-rebuild
comparison never paid for its failure knowledge.  Chlebus–Kowalski–Olkowski
("Deterministic Fault-Tolerant Distributed Computing in Linear Time and
Communication") makes the case that fault handling must be charged in the
same communication currency as the computation itself; the heartbeat-based
detectors of the distributed-systems literature (Aspnes's notes, Ch. 11)
are the standard way to do it.  :class:`HeartbeatDetector` implements that
model:

* every ``period`` epochs each tree node sends a tiny liveness bit to its
  parent — charged through the radio model like every other transmission,
  under the ``faults:heartbeat`` ledger key (so lossy links inflate the
  standing cost, and per-protocol snapshots separate the detection bill
  from ``faults:repair`` and ``faults:election`` exactly);
* a node that physically crashed sends nothing: its parent notices the
  missing heartbeat at the next sweep, which is when the crash becomes
  *known* — the alive-mask flips, the readings are already gone, and the
  repair runs.  Detection latency is therefore ``detection_epoch -
  crash_epoch``, between ``0`` and ``period - 1`` epochs, trading linearly
  against the heartbeat bill;
* between crash and detection the victim is a *zombie*: silent (a silent
  node is indistinguishable from a suppressed one in a delta-streaming
  engine) and stale — its readings were destroyed at the crash, but its
  cached summary contribution survives at its parent until the repair
  evicts it, so the answer error during the window is the measurable price
  of not knowing yet.

Only ordinary node crashes need the detector.  Link failures are observable
by the *sender* for free (the radio layer reports missed acks on the next
use), so the engine keeps applying them oracle-style; rejoins announce
themselves through the adoption handshake the repair already charges; and
the *root's* crash is self-announcing — its children expect the epoch tick
from it — so a :class:`~repro.faults.RootCrash` is applied immediately and
the charged response is the :class:`~repro.faults.RootElection`, not a
heartbeat.
"""

from __future__ import annotations

import numpy as np

from repro._util.validation import require_positive
from repro.exceptions import ConfigurationError, DeliveryError
from repro.network.simulator import SensorNetwork

#: One liveness token per tree edge per sweep: a type bit plus an epoch
#: parity bit, enough for the parent to tell "alive now" from a duplicate.
HEARTBEAT_BITS = 2


class HeartbeatDetector:
    """Periodic parent-ward heartbeats with charged bits and real latency.

    ``period`` is the sweep interval in epochs: sweeps fire at every epoch
    that is a multiple of ``period``, so ``period=1`` detects every crash
    the epoch it happens (the oracle's timing, but *paid for*), and larger
    periods trade heartbeat bits for detection latency — worst case
    ``period - 1`` epochs, ``(period - 1) / 2`` expected under crashes
    uniform in time.
    """

    def __init__(
        self,
        period: int = 1,
        heartbeat_bits: int = HEARTBEAT_BITS,
        protocol: str = "faults:heartbeat",
    ) -> None:
        require_positive(period, "period")
        require_positive(heartbeat_bits, "heartbeat_bits")
        self.period = period
        self.heartbeat_bits = heartbeat_bits
        self.protocol = protocol

    def sweep_due(self, epoch: int) -> bool:
        """Whether the heartbeat exchange fires at ``epoch``."""
        return epoch % self.period == 0

    def worst_case_latency(self) -> int:
        """Largest possible crash-to-detection gap, in epochs."""
        return self.period - 1

    def charge_sweep(
        self, network: SensorNetwork, silent: set[int]
    ) -> tuple[int, int]:
        """Charge one heartbeat per tree edge whose child can still speak.

        ``silent`` holds the physically-dead-but-undetected nodes: they
        transmit nothing (that silence *is* the detection signal), while
        their still-alive children keep paying heartbeats toward them until
        the repair re-parents the subtree.  Links touching a *known*-dead
        endpoint are skipped too: a node whose death is already on the
        alive-mask when the sweep fires (a :class:`~repro.faults.RootCrash`
        is applied before the sweep, since the root's silence at the epoch
        tick is self-announcing) neither sends nor is sent to.  The link
        sequence is the tree's cached child→parent edges (canonical
        bottom-up order), :attr:`~repro.network.FlatTree.up_link_array`
        filtered by the endpoints' alive masks and sent as one array through
        :meth:`~repro.network.SensorNetwork.send_batch`, so the ledger —
        including lossy-radio retries — is identical under every execution
        mode.  A heartbeat the radio loses for good is wasted traffic, not a
        fault: the links after it are sent on.  Returns ``(bits, messages)``
        charged.
        """
        telemetry = network.telemetry
        with telemetry.span("detect", period=self.period) as span:
            bits, messages = self._charge_sweep(network, silent)
            if telemetry.enabled:
                span.annotate(silent=len(silent))
                telemetry.count("detect.sweeps", 1)
        return bits, messages

    def _charge_sweep(
        self, network: SensorNetwork, silent: set[int]
    ) -> tuple[int, int]:
        links = network.flat_tree.up_link_array
        alive = network.alive_mask
        if silent or network.num_alive < network.num_nodes:
            if alive is None:  # sparse ids: no mask to index by id
                dead = network.dead_node_ids()
                mute = np.isin(links[:, 0], [*silent, *dead])
                links = links[~mute & ~np.isin(links[:, 1], dead)]
            else:
                speaks = alive
                if silent:
                    speaks = alive.copy()
                    speaks[list(silent)] = False
                links = _heard_links(links, speaks, alive)
        ledger = network.ledger
        bits, messages = ledger.total_bits, ledger.total_messages
        while len(links):
            try:
                network.send_batch(
                    links,
                    np.full(len(links), self.heartbeat_bits, dtype=np.int64),
                    protocol=self.protocol,
                    require_edge=False,
                )
                break
            except DeliveryError as error:
                # A permanently lost heartbeat is wasted traffic (the sender
                # is probed again next sweep; false-positive suspicion is
                # not modelled).  The links before it were charged: skip
                # the dead letter and keep sweeping.
                links = links[error.index + 1 :]
        return ledger.total_bits - bits, ledger.total_messages - messages

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"HeartbeatDetector(period={self.period}, "
            f"bits={self.heartbeat_bits})"
        )


def _heard_links(links, speaks, alive):
    """The rows of a ``(k, 2)`` child→parent link array one sweep charges.

    ``speaks`` and ``alive`` are boolean masks indexed by node id: a
    heartbeat is sent when the child speaks and its parent is alive to hear
    it.  Row order is kept.
    """
    return np.compress(speaks[links[:, 0]] & alive[links[:, 1]], links, axis=0)


def heartbeat_sweep_vectorized(
    flat,
    alive,
    ledger,
    heartbeat_bits: int = HEARTBEAT_BITS,
    protocol: str = "faults:heartbeat",
    telemetry=None,
    period: int = 1,
) -> tuple[int, int]:
    """Charge one heartbeat sweep from whole-array masks, no link list.

    The array counterpart of :meth:`HeartbeatDetector.charge_sweep` for the
    standalone :class:`~repro.network.vector_field.VectorField`: ``flat`` is
    a :class:`~repro.network.FlatTree`, ``alive`` a boolean mask over its
    canonical positions, and ``ledger`` a
    :class:`~repro.network.CommunicationLedger` (one vector add).  A
    link is charged when both endpoints are alive — a dead child is silent
    (that silence is the detection signal) and a dead parent is not probed.
    Returns ``(bits, messages)`` like the charged sweep.

    Perfect links only: the standalone field has no radio model, so this is
    the :class:`~repro.network.radio.ReliableRadio` cost exactly.
    """
    ids = flat.ids_array
    alive_by_id = np.zeros(int(ids.max()) + 1, dtype=bool)
    alive_by_id[ids] = alive
    links = _heard_links(flat.up_link_array, alive_by_id, alive_by_id)
    count = len(links)

    def _charge() -> None:
        if count:
            sizes = np.full(count, heartbeat_bits, dtype=np.int64)
            ledger.charge_array(links[:, 0], links[:, 1], sizes, protocol=protocol)

    if telemetry is not None and telemetry.enabled:
        with telemetry.span("detect", period=period) as span:
            _charge()
            span.annotate(silent=int(flat.num_nodes - int(alive.sum())))
            telemetry.count("detect.sweeps", 1)
    else:
        _charge()
    return count * heartbeat_bits, count


def detector_from_config(config) -> "HeartbeatDetector | None":
    """Normalise detector configuration: ``None``, a period, or an instance.

    The analysis entry points accept ``detector_period`` as a plain integer
    for sweep convenience; this helper keeps the coercion in one place.
    """
    if config is None:
        return None
    if isinstance(config, HeartbeatDetector):
        return config
    if isinstance(config, int) and not isinstance(config, bool):
        return HeartbeatDetector(period=config)
    raise ConfigurationError(
        f"detector must be None, an int period or a HeartbeatDetector, "
        f"got {config!r}"
    )
