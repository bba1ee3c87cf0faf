"""Shared fixtures for the test-suite."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.network.radio import ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links, line_links
from repro.telemetry import NULL_SPAN, TelemetryRecorder


class CountingRecorder(TelemetryRecorder):
    """A *disabled* recorder that counts every hook call that still reaches it.

    ``enabled`` stays ``False``, so every hot-path hook gated on it must
    never get here; what does arrive is the ungated per-phase traffic.  The
    overhead guards pin that traffic as a constant per epoch — independent
    of network size — which is the deterministic form of "watching is free
    when it is off".  Spans are the shared no-op :data:`NULL_SPAN`, so no
    span body work (timing, ledger marks, attribution) can run either.
    """

    def __init__(self, flight=None, attribution=None) -> None:
        self.calls: Counter[str] = Counter()
        self.flight = flight
        self.attribution = attribution

    def bind_ledger(self, ledger) -> None:
        self.calls["bind_ledger"] += 1

    def span(self, name, **attributes):
        self.calls[f"span:{name}"] += 1
        return NULL_SPAN

    def count(self, name, value=1, **labels) -> None:
        self.calls[f"count:{name}"] += 1

    def gauge(self, name, value, **labels) -> None:
        self.calls[f"gauge:{name}"] += 1

    def observe(self, name, value, **labels) -> None:
        self.calls[f"observe:{name}"] += 1

    def event(self, kind, *, node=None, cause=None, **attributes):
        self.calls[f"event:{kind}"] += 1
        return None

    @property
    def gated_calls(self) -> int:
        """Calls to hooks that instrumented code must gate on ``enabled``."""
        return sum(
            count
            for name, count in self.calls.items()
            if not name.startswith(("span:", "bind_ledger"))
        )


@pytest.fixture
def counting_recorder():
    """The :class:`CountingRecorder` class (call it for a fresh recorder)."""
    return CountingRecorder


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for tests that need raw randomness."""
    return random.Random(12345)


@pytest.fixture
def small_items() -> list[int]:
    """A small fixed multiset with a known median (42)."""
    return [7, 12, 99, 42, 57, 3, 42, 68, 21]


@pytest.fixture
def small_network(small_items) -> SensorNetwork:
    """A 9-node grid holding :func:`small_items`, one item per node."""
    return SensorNetwork.from_items(small_items, topology=grid_links(3, 3))


@pytest.fixture
def line_network() -> SensorNetwork:
    """A 16-node line holding the values 0..15."""
    return SensorNetwork.from_items(list(range(16)), topology=line_links(16))


@pytest.fixture
def medium_items(rng) -> list[int]:
    """100 random values in [0, 10_000], seeded."""
    return [rng.randrange(0, 10_001) for _ in range(100)]


@pytest.fixture
def medium_network(medium_items) -> SensorNetwork:
    """A 10x10 grid holding :func:`medium_items`."""
    return SensorNetwork.from_items(medium_items, topology=grid_links(10, 10))



class FoldingReliableRadio(ReliableRadio):
    """Perfect links that are not *the* perfect-link class.  The engine puts
    a count query on the column sweep only when ``type(radio) is
    ReliableRadio``, so under this radio every standing query takes the
    ``decide`` fold, while every send costs what it costs on perfect links."""


@pytest.fixture
def folding_radio():
    """The :class:`FoldingReliableRadio` class (call it for a fresh radio)."""
    return FoldingReliableRadio


@pytest.fixture(params=["sweep", "fold"])
def kernel_radio(request):
    """A perfect-link radio per engine kernel: off ``"per-edge"``, count
    queries take the column sweep under ``ReliableRadio`` and the ``decide``
    fold under :class:`FoldingReliableRadio`."""
    return ReliableRadio() if request.param == "sweep" else FoldingReliableRadio()
