"""DriftStream's block draws against the per-node loop they replace, and the
streams' refusals.

``reference_drift_step`` is the per-node ``DriftStream.step`` body from
before the stream drew its doubles as one Mersenne Twister block.  It runs
on a twin stream's live ``random.Random``, so the oracle is Python's own
``random()`` and ``gauss`` — not a copy of their arithmetic.  At every step
boundary both streams must return the same updates and leave their
generators in the same state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.workloads.streams import BurstStream, ChurnStream, DriftStream, SeasonalStream


def reference_drift_step(self, epoch: int) -> dict[int, list[int]]:
    del epoch
    sigma = self.step_fraction * self.max_value
    updates: dict[int, list[int]] = {}
    for node in range(self.num_nodes):
        if self._rng.random() >= self.drift_fraction:
            continue
        moved = self._clamp(self._values[node] + self._rng.gauss(0.0, sigma))
        if moved != self._values[node]:
            self._values[node] = moved
            updates[node] = [moved]
    return updates


actions = st.lists(
    st.one_of(
        st.just(("step",)),
        st.just(("initial",)),
        # Draws on the generator between steps, some leaving a cached
        # Gaussian deviate for the next step's first hit to take.
        st.tuples(st.just("outside"), st.integers(0, 3), st.booleans()),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_nodes=st.sampled_from([1, 37, 512]),
    drift_fraction=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
    max_value=st.sampled_from([0, 1, 255, 1 << 16, (1 << 53) + 1, (1 << 63) - 1]),
    step_fraction=st.sampled_from([0.02, 0.5, 3.0]),
    seed=st.integers(0, 2**64),
    shared=st.booleans(),
    script=actions,
)
def test_block_draws_equal_the_per_node_loop(
    num_nodes, drift_fraction, max_value, step_fraction, seed, shared, script
):
    twins = []
    for _ in range(2):
        twins.append(
            DriftStream(
                num_nodes,
                max_value=max_value,
                seed=random.Random(seed) if shared else seed,
                drift_fraction=drift_fraction,
                step_fraction=step_fraction,
            )
        )
    block, loop = twins

    def restart():
        assert block.initial() == loop.initial()
        loop._values = loop._values.tolist()  # the loop's readings were a list

    restart()
    for epoch, action in enumerate([*script, ("step",), ("step",)], start=1):
        if action[0] == "initial":
            restart()
        elif action[0] == "outside":
            _, draws, gauss = action
            for rng in (block._rng, loop._rng):
                for _ in range(draws):
                    rng.random()
                if gauss:
                    rng.gauss(0.0, 1.0)
        else:
            assert block.step(epoch) == reference_drift_step(loop, epoch)
        assert block._rng.getstate() == loop._rng.getstate()
        assert block._values.tolist() == loop._values


def test_a_shared_generator_serves_two_streams_in_turn():
    """Two streams on one generator interleave their draws exactly as the
    loop did: no block of doubles outlives a step."""
    shared, twin = random.Random(7), random.Random(7)
    streams = [DriftStream(64, seed=shared, drift_fraction=0.3) for _ in range(2)]
    loops = [DriftStream(64, seed=twin, drift_fraction=0.3) for _ in range(2)]
    for stream, loop in zip(streams, loops):
        assert stream.initial() == loop.initial()
        loop._values = loop._values.tolist()
    for epoch in range(1, 6):
        for stream, loop in zip(streams, loops):
            assert stream.step(epoch) == reference_drift_step(loop, epoch)
            assert shared.getstate() == twin.getstate()


@pytest.mark.parametrize("cls", [DriftStream, BurstStream, ChurnStream, SeasonalStream])
@pytest.mark.parametrize("num_nodes", [3, 2000])
def test_step_before_initial_is_refused_without_drawing(cls, num_nodes):
    stream = cls(num_nodes, seed=0)
    before = stream._rng.getstate()
    for epoch in (1, 10):  # BurstStream's burst begins at epoch 10
        with pytest.raises(ConfigurationError, match=r"step\(\) called before initial\(\)"):
            stream.step(epoch)
    assert stream._rng.getstate() == before
    stream.initial()
    stream.step(1)


class _Replayed(random.Random):
    def random(self):
        return 0.25


@pytest.mark.parametrize("seed", [random.SystemRandom(), _Replayed(0)])
def test_a_generator_without_a_readable_twister_is_refused(seed):
    with pytest.raises(ConfigurationError, match="Mersenne Twister words"):
        DriftStream(8, seed=seed)


@pytest.mark.parametrize("step_fraction", [0, -0.5, float("inf"), float("nan")])
def test_step_fraction_must_be_positive_and_finite(step_fraction):
    with pytest.raises(ConfigurationError, match="step_fraction"):
        DriftStream(8, step_fraction=step_fraction)


def test_readings_must_fit_an_int64_item():
    DriftStream(8, max_value=(1 << 63) - 1)
    with pytest.raises(ConfigurationError, match="below 2\\*\\*63"):
        DriftStream(8, max_value=1 << 63)


def test_a_reading_rounding_past_the_top_of_int64_clamps_to_it():
    """float(2**63 - 1) is 2**63: a step from the top reading rounds there,
    one past what an int64 holds, and must clamp back as the loop's does."""
    top = (1 << 63) - 1
    block, loop = (
        DriftStream(4, max_value=top, seed=5, drift_fraction=1.0, step_fraction=1e-18)
        for _ in range(2)
    )
    block.initial(), loop.initial()
    block._values[:] = top
    loop._values = [top] * 4
    for epoch in range(1, 4):
        assert block.step(epoch) == reference_drift_step(loop, epoch) == {}
        assert block._values.tolist() == loop._values
