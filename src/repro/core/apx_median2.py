"""Polyloglog approximate median — Algorithm APX_MEDIAN2 of Fig. 4.

The key idea (Section 4.2): instead of binary-searching the *value* of the
median, search the *length* (logarithm) of the value.  Each node locally
replaces its item ``x`` by ``x̂ = floor(log2(x + 1))``, shrinking the search
domain from ``[0, X̄]`` to ``[0, O(log X̄)]``, so every probe of the
approximate order-statistic search costs only ``O(log log X̄)``-bit messages.
A single pass pins the median down to a dyadic interval
``[2^μ̂ − 1, 2^{μ̂+1} − 1)`` — constant *relative* precision.  To reach
precision β, the algorithm zooms into that interval, rescales it to the full
range ``[1, X̄]`` (Fig. 3's schematic), adjusts the target rank by the number
of discarded smaller items, and repeats for ``ceil(log2(1/β))`` stages.

Per Theorem 4.7 / Corollary 4.8 the per-node communication is
``O((log log N)³)`` bits for constant β and ε.  The length transform, the
active/passive decision and the rescaling are all node-local (the root only
broadcasts μ̂, a ``O(log log X̄)``-bit value).  That per-node space is item
columns of the run's own — each node's scaled values; a node is active while
it holds any — handed to the composed protocols as ``items=``.

Implementation notes (documented deviations, none affecting the asymptotics):

* The paper's transform ``floor(log x)`` is undefined for ``x = 0``; we use
  ``floor(log2(x + 1))`` throughout, shifting the dyadic boundaries by one.
* Rescaled values are rounded down to integers so they remain valid protocol
  inputs; the rounding error is one unit of the *current* scale, which after
  ``j`` zoom-ins is at most ``2^{-j}`` of the original range — within the β
  budget the stage is already charged for.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from repro._util.bits import bit_length_array, varint_bits
from repro._util.validation import require_probability
from repro.core.apx_median import ApproximateOrderStatisticProtocol
from repro.core.rep_count import RepeatedApproxCount, RepetitionPolicy
from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.node import INT64_MAX, ItemColumns
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import MaxProtocol
from repro.protocols.apx_count import ApproxCountProtocol
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.predicates import PowerThresholdPredicate
from repro.protocols.tally import sweep_tally


@dataclass(frozen=True)
class ZoomStage:
    """Diagnostics for one zoom-in iteration."""

    stage: int
    mu_hat: int
    k: float
    interval_low_scaled: int
    interval_width_scaled: int
    original_low: float
    original_scale: float
    active_estimate: float


@dataclass(frozen=True)
class PolyloglogOutcome:
    """Root-side outcome of Algorithm APX_MEDIAN2."""

    value: int
    n_estimate: float
    stages: list[ZoomStage] = field(default_factory=list)
    beta: float = 0.0
    epsilon: float = 0.0
    alpha_guarantee: float = 0.0


def _log_length(values):
    """The length transform x̂ = floor(log2(x + 1)) used in place of
    floor(log x), over an array of items (exact for every int64 item)."""
    return bit_length_array(np.asarray(values, dtype=np.uint64) + np.uint64(1)) - 1


def _rescale(values, low: int, scale_num: int, scale_den: int):
    """``1 + (v - low) * scale_num // scale_den`` for every ``v``, exactly:
    a product that could pass 2**63 is taken in Python ints (the results lie
    in ``[1, scale_num + 1]`` and fit int64 again)."""
    offsets = values - low
    if offsets.size and int(offsets.max()) * scale_num > INT64_MAX:
        offsets = offsets.astype(object)
    return (1 + offsets * scale_num // scale_den).astype(np.int64)


class PolyloglogMedianProtocol:
    """Algorithm APX_MEDIAN2(X, β, ε): approximate median with polyloglog bits."""

    def __init__(
        self,
        beta: float = 1.0 / 16.0,
        epsilon: float = 0.25,
        num_registers: int = 256,
        repetition_policy: RepetitionPolicy | None = None,
        sketch: str = "loglog",
        domain_max: int | None = None,
        seed: int | random.Random | None = 0,
    ) -> None:
        self.beta = require_probability(beta, "beta")
        self.epsilon = require_probability(epsilon, "epsilon")
        if self.beta == 0.0 or self.epsilon == 0.0:
            raise ConfigurationError("beta and epsilon must be strictly positive")
        self.num_registers = num_registers
        self.sketch = sketch
        self.policy = (
            repetition_policy
            if repetition_policy is not None
            else RepetitionPolicy.practical()
        )
        self.domain_max = domain_max
        self._seed = seed
        self._counter = ApproxCountProtocol(
            num_registers=num_registers,
            mode="multiset",
            sketch=sketch,
            seed=seed,
        )
        self._rep_count = RepeatedApproxCount(self._counter)

    @property
    def sigma(self) -> float:
        """Relative standard deviation of one underlying α-counting invocation."""
        return self._counter.relative_sigma

    # ------------------------------------------------------------------ #
    def run(self, network: SensorNetwork) -> ProtocolResult:
        """Execute Fig. 4; the result's ``value`` is a :class:`PolyloglogOutcome`.

        Every sweep of the run, those of the stages' APX_MEDIAN searches
        included, goes into one tally where the network defers them
        (:mod:`repro.protocols.tally`), charged before the result.
        """
        with MeteredRun(network) as metered, sweep_tally(network) as tally:
            if network.total_items() == 0:
                raise EmptyNetworkError("cannot compute a median of an empty network")
            domain_max = self.domain_max
            if domain_max is None:
                # The paper assumes X̄ is known a priori; when it is not, one
                # exact MAX query (Fact 2.1, O(log N) bits) supplies it.
                domain_max = MaxProtocol().value(network, tally=tally)
            domain_max = max(1, domain_max)

            # Stage 0: announce the protocol; each node initialises its scaled
            # value to its original item(s), and is active if it holds any.
            broadcast(
                network,
                {"query": "APX_MEDIAN2", "beta": self.beta, "epsilon": self.epsilon},
                16,
                protocol="APX_MEDIAN2",
                tally=tally,
            )
            scaled = network.item_columns

            stages_total = max(1, math.ceil(math.log2(1.0 / self.beta)))
            q0 = max(1.0, math.log2(1.0 / self.beta)) / self.epsilon
            count_repetitions = self.policy.count_repetitions(q0)

            # Line 1: approximate total count and initial target rank.
            n_estimate = self._rep_count.average(
                network, count_repetitions, items=scaled, tally=tally
            )
            if n_estimate <= 0:
                raise EmptyNetworkError("approximate count returned zero items")
            k = n_estimate / 2.0

            # Root-side affine map: original ≈ offset + (scaled − domain_lo) · scale.
            offset = 0.0
            scale = 1.0
            domain_lo = 0.0

            stage_epsilon = min(
                0.5, self.epsilon / (2.0 * max(1.0, math.log2(1.0 / self.beta)))
            )
            stage_records: list[ZoomStage] = []

            for stage in range(1, stages_total + 1):
                # Line 3.1: approximate k-order statistic on the length domain.
                apx_os = ApproximateOrderStatisticProtocol(
                    epsilon=stage_epsilon,
                    quantile=None,
                    k=max(1.0, k),
                    num_registers=self.num_registers,
                    repetition_policy=self.policy,
                    sketch=self.sketch,
                    domain_max=int(_log_length(domain_max)),
                    seed=self._counter._rng,
                )
                # The X̂ of Fig. 4: the length transform of the active values.
                lengths = ItemColumns(scaled.ptr, _log_length(scaled.values))
                mu_hat = max(0, int(apx_os.select(network, lengths, tally).value))

                # Line 3.4 (done before deactivation so it counts over X^(j)):
                # how many currently-active items fall below the selected
                # dyadic interval.  The predicate is described by the exponent
                # alone, keeping the message polyloglog-sized.
                below_predicate = PowerThresholdPredicate(exponent=mu_hat, offset=-1)
                below_estimate = self._rep_count.average(
                    network, count_repetitions, below_predicate, scaled, tally
                )

                # Selected interval in the current scaled domain (with the +1
                # shift of the length transform).
                interval_low = (1 << mu_hat) - 1
                interval_width = 1 << mu_hat

                # Line 3.1 (broadcast) + Lines 3.2/3.3: nodes learn μ̂ and
                # locally deactivate or rescale.
                broadcast(
                    network,
                    {"query": "APX_MEDIAN2_ZOOM", "mu_hat": mu_hat, "stage": stage},
                    varint_bits(mu_hat) + 4,
                    protocol="APX_MEDIAN2",
                    tally=tally,
                )
                # A value survives inside [2^μ̂ − 1, 2^{μ̂+1} − 1); a node left
                # with none turns passive.
                values = scaled.values
                inside = ~below_predicate.mask(values) & PowerThresholdPredicate(
                    exponent=mu_hat + 1, offset=-1
                ).mask(values)
                if interval_width == 1:
                    rescaled = np.ones(int(inside.sum()), dtype=np.int64)
                else:
                    rescaled = _rescale(
                        values[inside], interval_low, domain_max - 1, interval_width - 1
                    )
                scaled = scaled.select(inside, rescaled)

                # Root-side affine update mirroring the node-local rescaling.
                offset = offset + (interval_low - domain_lo) * scale
                if interval_width > 1:
                    scale = scale * (interval_width - 1) / max(1, domain_max - 1)
                domain_lo = 1.0

                # Line 3.4: adjust the target rank.
                k = max(1.0, k - below_estimate)

                active_estimate = self._rep_count.average(network, 1, items=scaled, tally=tally)
                stage_records.append(
                    ZoomStage(
                        stage=stage,
                        mu_hat=mu_hat,
                        k=k,
                        interval_low_scaled=interval_low,
                        interval_width_scaled=interval_width,
                        original_low=offset,
                        original_scale=scale,
                        active_estimate=active_estimate,
                    )
                )
                if interval_width == 1:
                    break  # The interval is a single value; no further precision to gain.
                if active_estimate <= 0:
                    # Estimation noise selected an interval that turned out to
                    # be empty; the current offset is still within the already
                    # achieved precision, so stop zooming rather than querying
                    # an empty active set.
                    break

            value = int(round(offset))
            value = max(0, min(domain_max, value))
            alpha_guarantee = 3.0 * self.sigma * max(1.0, math.log2(1.0 / self.beta))
            outcome = PolyloglogOutcome(
                value=value,
                n_estimate=n_estimate,
                stages=stage_records,
                beta=self.beta,
                epsilon=self.epsilon,
                alpha_guarantee=alpha_guarantee,
            )
        return metered.result(outcome)
