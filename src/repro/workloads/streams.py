"""Time-evolving (streaming) workloads.

The one-shot generators in :mod:`repro.workloads.generators` produce a single
snapshot of readings.  Continuous monitoring — the regime the streaming engine
targets — needs readings that *evolve* epoch by epoch, so each class below is
a stateful stream: :meth:`~StreamWorkload.initial` yields the epoch-0
assignment and :meth:`~StreamWorkload.step` yields only the nodes whose
readings changed in the current epoch (an empty item list marks a node that
went offline).  Four qualitatively different dynamics are provided:

* ``drift`` — each epoch a small fraction of sensors take a bounded random
  walk step, the classic slowly-varying temperature/light trace;
* ``burst`` — long quiet stretches punctuated by a correlated jump of a
  node subset (an event passing through the field), stressing the engine's
  ability to fall back to near-recompute traffic during the burst;
* ``churn`` — sensors fail and rejoin with fresh readings, changing the
  *population* rather than just the values (COUNT answers must track it);
* ``seasonal`` — every reading follows a shared sinusoid plus per-node phase,
  so *all* nodes change a little every epoch, the worst case for per-node
  change detection and the best case for delta encoding.

All streams are deterministic in their ``seed``; values are non-negative
integers bounded by ``max_value``, matching the one-shot generators, and
every stream refuses :meth:`~StreamWorkload.step` before
:meth:`~StreamWorkload.initial`.

A quiet drift epoch costs its updates, not its nodes.
:meth:`DriftStream.step` takes from the seed's Mersenne Twister, as one
block of words (``getrandbits``), exactly the doubles a per-node loop of
``random()`` and ``gauss()`` calls would draw, and walks only the nodes
whose draw fell below ``drift_fraction`` (``gauss`` in the random module's
own arithmetic).  The updates and the generator's state are those of the
loop, so code sharing a ``random.Random`` seed sees the draws it always
saw.  The seed must be an ``int``, ``None`` or a ``random.Random`` that
draws with the Mersenne Twister (not ``random.SystemRandom``).
"""

from __future__ import annotations

import abc
import math
import random

import numpy as np

from repro._util.randomness import make_rng
from repro._util.validation import require_non_negative, require_positive, require_probability
from repro.exceptions import ConfigurationError
from repro.faults.events import NodeCrash, NodeRejoin
from repro.network.node import INT64_MAX

_TWOPI = 2.0 * math.pi  # random.gauss's constant
_TO_DOUBLE = 1.0 / 9007199254740992.0  # random()'s: 53-bit integer -> [0, 1)


class StreamWorkload(abc.ABC):
    """A deterministic per-epoch update process over ``num_nodes`` sensors."""

    name = "stream"

    def __init__(self, num_nodes: int, max_value: int = 1 << 16, seed: int | None = 0) -> None:
        require_positive(num_nodes, "num_nodes")
        require_non_negative(max_value, "max_value")
        self.num_nodes = num_nodes
        self.max_value = max_value
        self.seed = seed
        self._rng = make_rng(seed)

    def _clamp(self, value: float) -> int:
        return max(0, min(self.max_value, int(round(value))))

    def _started(self, state):
        """``state``, once :meth:`initial` has filled it (never empty then)."""
        if not len(state):
            raise ConfigurationError(
                f"{type(self).__name__}.step() called before initial()"
            )
        return state

    @abc.abstractmethod
    def initial(self) -> dict[int, list[int]]:
        """The epoch-0 reading of every node (node id → item list)."""

    @abc.abstractmethod
    def step(self, epoch: int) -> dict[int, list[int]]:
        """Advance one epoch; return only the nodes whose readings changed.

        An empty list means the node currently holds no reading (offline).
        ``epoch`` is informational — streams advance their own state on every
        call, so :meth:`step` must be called once per epoch, in order.
        """


class DriftStream(StreamWorkload):
    """A fraction of sensors take a small bounded random-walk step each epoch."""

    name = "drift"

    def __init__(
        self,
        num_nodes: int,
        max_value: int = 1 << 16,
        seed: int | None = 0,
        drift_fraction: float = 0.05,
        step_fraction: float = 0.02,
    ) -> None:
        super().__init__(num_nodes, max_value=max_value, seed=seed)
        self.drift_fraction = require_probability(drift_fraction, "drift_fraction")
        if not 0 < step_fraction < math.inf:
            raise ConfigurationError(
                f"step_fraction must be positive and finite, got {step_fraction}"
            )
        self.step_fraction = step_fraction
        # step() takes the generator's words in blocks and sets its cached
        # Gaussian deviate: both must be random.Random's own.
        if any(
            getattr(type(self._rng), method) is not getattr(random.Random, method)
            for method in ("random", "gauss", "getrandbits")
        ):
            raise ConfigurationError(
                "DriftStream draws random.Random's Mersenne Twister words in "
                f"blocks; got a {type(self._rng).__name__}"
            )
        if max_value > INT64_MAX:
            raise ConfigurationError(
                f"max_value must be below 2**63 (readings are int64 items), got {max_value}"
            )
        # random() is k / 2**53 for a 53-bit k, so it falls below the
        # fraction exactly when k falls below this.
        self._threshold = math.ceil(self.drift_fraction * 2.0**53)
        # The largest float64 not above max_value: a rounded reading beyond
        # it is beyond max_value.
        self._ceiling = float(max_value)
        if self._ceiling > max_value:
            self._ceiling = math.nextafter(self._ceiling, 0.0)
        self._values = np.zeros(0, dtype=np.int64)

    def initial(self) -> dict[int, list[int]]:
        values = [self._rng.randint(0, self.max_value) for _ in range(self.num_nodes)]
        self._values = np.array(values, dtype=np.int64)
        return {node: [value] for node, value in enumerate(values)}

    def step(self, epoch: int) -> dict[int, list[int]]:
        del epoch
        values = self._started(self._values)
        rng = self._rng
        gauss_next = rng.gauss_next
        # The per-node loop draws one double per node, plus two after every
        # other hit: a ``gauss`` call with no cached deviate draws a pair and
        # caches the second.  Node ``i``'s draw is ``block[i + consumed]``,
        # ``consumed`` counting the pair draws before it; the block grows
        # only to doubles the loop would draw.  A double is two words of the
        # generator, and ``block`` holds each as random()'s 53-bit integer.
        num_nodes, threshold = self.num_nodes, self._threshold
        hits: list[int] = []

        def draw(block):
            count = num_nodes + consumed - block.size
            words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
            raw = np.frombuffer(words, dtype="<u8")  # (second word << 32) | first
            extra = ((raw & 0xFFFFFFFF) >> 5 << 26) | (raw >> 38)
            hits.extend((np.flatnonzero(extra < threshold) + block.size).tolist())
            return np.concatenate((block, extra))

        consumed = 0
        block = draw(np.zeros(0, dtype=np.uint64))
        nodes: list[int] = []  # the nodes that step, in order
        pairs = []  # the block positions of the pairs' first draws
        cached = gauss_next is not None
        upcoming = 0  # the block position of the next node's draw
        index = 0
        while index < len(hits) or block.size < num_nodes + consumed:
            if index == len(hits):
                block = draw(block)
                continue
            position = hits[index]
            index += 1
            if position < upcoming:
                continue  # a pair draw that happens to lie below the fraction
            nodes.append(position - consumed)
            if cached:
                upcoming = position + 1
            else:
                pairs.append(position + 1)
                consumed += 2
                upcoming = position + 3
                if upcoming > block.size:
                    block = draw(block)
            cached = not cached
        # random.gauss on every pair, operation for operation: the products
        # and differences as float64 arrays, the libm calls through math.
        pairs = np.array(pairs, dtype=np.int64)
        angles = (block[pairs] * _TO_DOUBLE * _TWOPI).tolist()
        logs = np.array(list(map(math.log, (1.0 - block[pairs + 1] * _TO_DOUBLE).tolist())))
        radii = np.array(list(map(math.sqrt, (-2.0 * logs).tolist())))
        cosines = np.array(list(map(math.cos, angles))) * radii
        sines = np.array(list(map(math.sin, angles))) * radii
        deviates = np.column_stack((cosines, sines)).ravel().tolist()
        if gauss_next is not None:
            deviates.insert(0, gauss_next)
        gauss_next = deviates[len(nodes)] if len(deviates) > len(nodes) else None
        # _clamp(value + gauss * sigma) for every stepping node, as arrays:
        # the int64 -> float64 sum rounds as Python's int + float does.
        sigma = self.step_fraction * self.max_value
        nodes = np.array(nodes, dtype=np.int64)
        before = values[nodes]
        rounded = np.rint(before + np.multiply(deviates[: nodes.size], sigma))
        after = np.clip(rounded, 0.0, self._ceiling).astype(np.int64)
        after[rounded > self._ceiling] = self.max_value
        moved = after != before
        nodes, after = nodes[moved], after[moved]
        values[nodes] = after
        rng.gauss_next = gauss_next
        return {node: [value] for node, value in zip(nodes.tolist(), after.tolist())}


class BurstStream(StreamWorkload):
    """Quiet background with periodic correlated jumps of a node subset.

    Every ``burst_period`` epochs a fresh subset of ``burst_fraction`` of the
    nodes jumps up by ``burst_offset_fraction`` of the range, stays elevated
    for ``burst_length`` epochs and then returns to its base reading.
    """

    name = "burst"

    def __init__(
        self,
        num_nodes: int,
        max_value: int = 1 << 16,
        seed: int | None = 0,
        burst_period: int = 10,
        burst_length: int = 3,
        burst_fraction: float = 0.2,
        burst_offset_fraction: float = 0.3,
    ) -> None:
        super().__init__(num_nodes, max_value=max_value, seed=seed)
        require_positive(burst_period, "burst_period")
        require_positive(burst_length, "burst_length")
        if burst_length >= burst_period:
            raise ConfigurationError("burst_length must be smaller than burst_period")
        self.burst_period = burst_period
        self.burst_length = burst_length
        self.burst_fraction = require_probability(burst_fraction, "burst_fraction")
        self.burst_offset_fraction = require_probability(
            burst_offset_fraction, "burst_offset_fraction"
        )
        self._base: list[int] = []
        self._burst_set: set[int] = set()
        self._clock = 0

    def initial(self) -> dict[int, list[int]]:
        self._base = [
            self._rng.randint(0, self.max_value) for _ in range(self.num_nodes)
        ]
        self._clock = 0
        return {node: [value] for node, value in enumerate(self._base)}

    def step(self, epoch: int) -> dict[int, list[int]]:
        del epoch
        self._started(self._base)
        self._clock += 1
        phase = self._clock % self.burst_period
        updates: dict[int, list[int]] = {}
        if phase == 0:
            # Burst begins: pick a fresh subset and lift it.
            count = max(1, int(self.burst_fraction * self.num_nodes))
            self._burst_set = set(self._rng.sample(range(self.num_nodes), count))
            offset = self.burst_offset_fraction * self.max_value
            for node in sorted(self._burst_set):
                updates[node] = [self._clamp(self._base[node] + offset)]
        elif phase == self.burst_length and self._burst_set:
            # Burst ends: everyone returns to base.
            for node in sorted(self._burst_set):
                updates[node] = [self._base[node]]
            self._burst_set = set()
        return updates


class ChurnStream(StreamWorkload):
    """Sensors fail and rejoin: population changes dominate value changes.

    Each epoch every node independently toggles with probability
    ``churn_rate``: an online node goes offline and an offline node rejoins
    with a fresh uniform reading.  Node 0 — the root in the default network
    construction — is pinned online so the query engine always has an
    answering node.

    Two fault models are supported.  In the default *compatibility mode*
    (``emit_events=False``) churn is silent: an offline node's update is an
    empty item list and a rejoin is a plain value update, so the network
    topology never changes — the engine merely sees readings vanish.  With
    ``emit_events=True`` the stream instead emits explicit
    :class:`~repro.faults.NodeCrash` / :class:`~repro.faults.NodeRejoin`
    events (collected via :meth:`pop_fault_events`) for the
    :class:`~repro.faults.FaultEngine` to apply, and :meth:`step` returns no
    entry for churned nodes at all — the fault engine owns item loss and
    fresh readings.  Both modes draw identical randomness, so one seed
    reproduces the same churn trajectory either way.
    """

    name = "churn"

    def __init__(
        self,
        num_nodes: int,
        max_value: int = 1 << 16,
        seed: int | None = 0,
        churn_rate: float = 0.05,
        emit_events: bool = False,
    ) -> None:
        super().__init__(num_nodes, max_value=max_value, seed=seed)
        self.churn_rate = require_probability(churn_rate, "churn_rate")
        self.emit_events = emit_events
        self._values: list[int] = []
        self._online: list[bool] = []
        self._pending_events: list[object] = []

    def initial(self) -> dict[int, list[int]]:
        self._values = [
            self._rng.randint(0, self.max_value) for _ in range(self.num_nodes)
        ]
        self._online = [True] * self.num_nodes
        self._pending_events = []
        return {node: [value] for node, value in enumerate(self._values)}

    def step(self, epoch: int) -> dict[int, list[int]]:
        del epoch
        self._started(self._values)
        updates: dict[int, list[int]] = {}
        for node in range(self.num_nodes):
            if self._rng.random() >= self.churn_rate:
                continue
            if node == 0:
                continue  # the root stays online
            if self._online[node]:
                self._online[node] = False
                if self.emit_events:
                    self._pending_events.append(NodeCrash(node))
                else:
                    updates[node] = []
            else:
                self._online[node] = True
                self._values[node] = self._rng.randint(0, self.max_value)
                if self.emit_events:
                    self._pending_events.append(
                        NodeRejoin(node, items=(self._values[node],))
                    )
                else:
                    updates[node] = [self._values[node]]
        return updates

    def pop_fault_events(self) -> list[object]:
        """Return (and clear) the fault events produced by the last step.

        Empty unless ``emit_events=True``.  The fault-aware stream runner
        (:func:`~repro.faults.run_faulty_stream`) calls this each epoch and
        hands the events to the fault engine.
        """
        events, self._pending_events = self._pending_events, []
        return events

    def online_count(self) -> int:
        """Number of currently-online sensors (ground truth for tests)."""
        return sum(self._online)


class SeasonalStream(StreamWorkload):
    """Every reading follows a shared sinusoid with per-node phase and noise.

    All nodes move a little every epoch — dense small changes, the regime
    where delta encoding (not change suppression) carries the savings.
    """

    name = "seasonal"

    def __init__(
        self,
        num_nodes: int,
        max_value: int = 1 << 16,
        seed: int | None = 0,
        period: int = 24,
        amplitude_fraction: float = 0.1,
        noise_fraction: float = 0.005,
    ) -> None:
        super().__init__(num_nodes, max_value=max_value, seed=seed)
        require_positive(period, "period")
        self.period = period
        self.amplitude_fraction = require_probability(
            amplitude_fraction, "amplitude_fraction"
        )
        self.noise_fraction = require_probability(noise_fraction, "noise_fraction")
        self._base: list[int] = []
        self._phase: list[float] = []
        self._values: list[int] = []
        self._clock = 0

    def _reading(self, node: int) -> int:
        wave = math.sin(2.0 * math.pi * (self._clock / self.period + self._phase[node]))
        noise = self._rng.gauss(0.0, self.noise_fraction * self.max_value)
        return self._clamp(
            self._base[node] + self.amplitude_fraction * self.max_value * wave + noise
        )

    def initial(self) -> dict[int, list[int]]:
        margin = int(self.amplitude_fraction * self.max_value)
        self._base = [
            self._rng.randint(margin, max(margin, self.max_value - margin))
            for _ in range(self.num_nodes)
        ]
        self._phase = [self._rng.random() for _ in range(self.num_nodes)]
        self._clock = 0
        self._values = [self._reading(node) for node in range(self.num_nodes)]
        return {node: [value] for node, value in enumerate(self._values)}

    def step(self, epoch: int) -> dict[int, list[int]]:
        del epoch
        self._started(self._values)
        self._clock += 1
        updates: dict[int, list[int]] = {}
        for node in range(self.num_nodes):
            reading = self._reading(node)
            if reading != self._values[node]:
                self._values[node] = reading
                updates[node] = [reading]
        return updates


STREAM_WORKLOADS: dict[str, type[StreamWorkload]] = {
    DriftStream.name: DriftStream,
    BurstStream.name: BurstStream,
    ChurnStream.name: ChurnStream,
    SeasonalStream.name: SeasonalStream,
}
"""Name → stream class map used by the experiment harness and the benchmarks."""


def make_stream(
    name: str,
    num_nodes: int,
    max_value: int = 1 << 16,
    seed: int | None = 0,
    **params,
) -> StreamWorkload:
    """Instantiate a named stream workload."""
    if name not in STREAM_WORKLOADS:
        raise ConfigurationError(
            f"unknown stream workload {name!r}; known: {sorted(STREAM_WORKLOADS)}"
        )
    return STREAM_WORKLOADS[name](
        num_nodes, max_value=max_value, seed=seed, **params
    )
