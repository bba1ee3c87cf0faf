"""Approximate median and order statistics — Algorithm APX_MEDIAN of Fig. 2.

The deterministic binary search of Fig. 1 is made robust to noisy counts:

* exact COUNTP probes are replaced by REP_COUNTP — the average of several
  independent α-counting (LogLog) invocations;
* the comparison against ``n/2`` gains a safety margin of ``α_c + σ`` on both
  sides.  When the averaged count lands *inside* the margin the current probe
  point is already close to the median in rank, so the algorithm outputs it
  and halts early (Line 4.2.1, analysed in Lemma 4.4).

Guarantees reproduced (Theorems 4.5, 4.6; experiment E5): with the paper's
repetition counts the output is an (α, β)-median with probability ≥ 1 − ε for
α = 3σ and β = 1/N, and the per-node communication is
``O((log max X)² · C_A(N) / ε)`` where ``C_A`` is the α-counting cost.

Replacing the ``1/2`` by ``k/N`` yields the k-order-statistic variant
(:class:`ApproximateOrderStatisticProtocol`), which Algorithm APX_MEDIAN2
invokes on the logarithm domain.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro._util.validation import require_probability
from repro.core.rep_count import RepeatedApproxCount, RepetitionPolicy
from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.node import ItemColumns
from repro.network.simulator import SensorNetwork
from repro.protocols.aggregates import MaxProtocol, MinProtocol
from repro.protocols.apx_count import ApproxCountProtocol
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.predicates import LessThanPredicate
from repro.protocols.tally import SweepTally, sweep_tally


@dataclass(frozen=True)
class ApproxMedianOutcome:
    """Root-side outcome of an approximate selection query."""

    value: int
    n_estimate: float
    target_rank: float
    minimum: int
    maximum: int
    probes: int
    iterations: int
    halted_early: bool
    alpha_guarantee: float
    beta_guarantee: float
    epsilon: float
    sigma: float


class ApproximateOrderStatisticProtocol:
    """Randomized (α, β) k-order statistic via noise-tolerant binary search.

    Args:
        epsilon: target failure probability ε of Theorem 4.5/4.6.
        quantile: target rank as a fraction of N (0.5 for the median), or
        k: target rank as an absolute count — exactly one of the two.
        num_registers: LogLog sketch size ``m`` of the underlying α-counting
            protocol; determines σ ≈ 1.30/√m and the per-message bits.
        repetition_policy: how many APX_COUNT repetitions each REP_COUNTP
            performs (``RepetitionPolicy.paper()`` for the verbatim constants).
        alpha_c: the α of the α-counting protocol (Fact 2.2 gives < 10⁻⁶).
        sketch: ``"loglog"`` or ``"hyperloglog"``.
        domain_max: known upper bound on item values, used only to size the
            predicate encodings.
        seed: randomness seed for the counting sketches.
    """

    def __init__(
        self,
        epsilon: float = 0.1,
        quantile: float | None = 0.5,
        k: float | None = None,
        num_registers: int = 64,
        repetition_policy: RepetitionPolicy | None = None,
        alpha_c: float = 1e-6,
        sketch: str = "loglog",
        domain_max: int | None = None,
        seed: int | random.Random | None = 0,
    ) -> None:
        self.epsilon = require_probability(epsilon, "epsilon")
        if self.epsilon == 0.0:
            raise ConfigurationError("epsilon must be strictly positive")
        if (quantile is None) == (k is None):
            raise ConfigurationError("exactly one of quantile and k must be given")
        if quantile is not None and not 0.0 < quantile <= 1.0:
            raise ConfigurationError(f"quantile must lie in (0, 1], got {quantile}")
        if k is not None and k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        self.quantile = quantile
        self.k = k
        self.alpha_c = alpha_c
        self.policy = (
            repetition_policy
            if repetition_policy is not None
            else RepetitionPolicy.practical()
        )
        self._domain_max = domain_max
        self._counter = ApproxCountProtocol(
            num_registers=num_registers,
            mode="multiset",
            sketch=sketch,
            seed=seed,
        )
        self._rep_count = RepeatedApproxCount(self._counter)

    @property
    def sigma(self) -> float:
        """Relative standard deviation σ of one α-counting invocation."""
        return self._counter.relative_sigma

    # ------------------------------------------------------------------ #
    def run(
        self, network: SensorNetwork, items: ItemColumns | None = None
    ) -> ProtocolResult:
        """Execute Fig. 2; the result's ``value`` is an :class:`ApproxMedianOutcome`.

        ``items`` (other columns in the network's row order) replaces the
        network's items.
        """
        with MeteredRun(network) as metered:
            outcome = self.select(network, items)
        return metered.result(outcome)

    def select(
        self,
        network: SensorNetwork,
        items: ItemColumns | None = None,
        tally: SweepTally | None = None,
    ) -> ApproxMedianOutcome:
        """The root-side outcome of Fig. 2, as :meth:`run` computes it.

        The search's sweeps (MIN, MAX, every APX_COUNT repetition) go into
        ``tally`` when given (APX_MEDIAN2 runs this on the logarithm domain
        inside its own), else into a tally of the search's own where the
        network defers them (:mod:`repro.protocols.tally`), charged before
        this returns.
        """
        sigma = self.sigma
        margin = self.alpha_c + sigma
        with sweep_tally(network, tally) as tally:
            # Line 1: exact MIN and MAX (cheap, Fact 2.1).
            minimum = MinProtocol(domain_max=self._domain_max).value(network, items, tally)
            maximum = MaxProtocol(domain_max=self._domain_max).value(network, items, tally)
            spread = maximum - minimum

            # Line 2: q and the approximate item count n.
            q = max(1.0, math.log2(max(2, spread))) / self.epsilon
            n_estimate = self._rep_count.average(
                network, self.policy.count_repetitions(q), items=items, tally=tally
            )
            if n_estimate <= 0:
                raise EmptyNetworkError("approximate count returned zero items")
            if self.quantile is not None:
                target_rank = self.quantile * n_estimate
                target_fraction = self.quantile
            else:
                target_rank = float(self.k)
                target_fraction = min(1.0, target_rank / n_estimate)

            probes = 0
            iterations = 0
            halted_early = False

            if spread == 0:
                outcome = ApproxMedianOutcome(
                    value=minimum,
                    n_estimate=n_estimate,
                    target_rank=target_rank,
                    minimum=minimum,
                    maximum=maximum,
                    probes=probes,
                    iterations=iterations,
                    halted_early=False,
                    alpha_guarantee=3.0 * sigma,
                    beta_guarantee=1.0 / max(n_estimate, 1.0),
                    epsilon=self.epsilon,
                    sigma=sigma,
                )
                return outcome

            # Line 3: initial probe point and radius, as in Fig. 1.
            y = (maximum + minimum) / 2.0
            z = float(1 << max(0, (spread - 1).bit_length() - 1)) if spread > 1 else 0.5
            probe_repetitions = self.policy.probe_repetitions(q)

            def rep_count_below(threshold: float) -> float:
                nonlocal probes
                probes += 1
                predicate = LessThanPredicate(
                    threshold=threshold,
                    domain_max=self._domain_max if self._domain_max is not None else maximum,
                )
                return self._rep_count.average(
                    network, probe_repetitions, predicate=predicate, items=items, tally=tally
                )

            # Line 4: noise-tolerant binary search.
            value: int | None = None
            while z > 0.5:
                iterations += 1
                estimate = rep_count_below(y)
                if estimate < n_estimate * (target_fraction - margin):
                    y += z / 2.0
                elif estimate >= n_estimate * (target_fraction + margin):
                    y -= z / 2.0
                else:
                    value = int(math.floor(y))
                    halted_early = True
                    break
                z /= 2.0

            if value is None:
                # Line 5.
                value = int(math.floor(y))

            outcome = ApproxMedianOutcome(
                value=value,
                n_estimate=n_estimate,
                target_rank=target_rank,
                minimum=minimum,
                maximum=maximum,
                probes=probes,
                iterations=iterations,
                halted_early=halted_early,
                alpha_guarantee=3.0 * sigma,
                beta_guarantee=1.0 / max(n_estimate, 1.0),
                epsilon=self.epsilon,
                sigma=sigma,
            )
        return outcome


class ApproximateMedianProtocol(ApproximateOrderStatisticProtocol):
    """Algorithm APX_MEDIAN(X, ε): the k = N/2 specialisation of Fig. 2."""

    def __init__(self, epsilon: float = 0.1, **kwargs) -> None:
        kwargs.pop("quantile", None)
        kwargs.pop("k", None)
        super().__init__(epsilon=epsilon, quantile=0.5, **kwargs)
