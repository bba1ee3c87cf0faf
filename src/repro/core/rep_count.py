"""REP_COUNTP — repetition and averaging of the α-counting protocol.

Fig. 2's subroutine: invoke ``r`` independent instances of APX_COUNT restricted
to a predicate and return the average.  By Lemma 4.1 (Chebyshev), the average
of ``r`` runs deviates from the true count ``g`` by more than ``t + α_c g``
with probability at most ``σ² / (r t²)``.

The paper sets ``r = ceil(2q)`` for the initial size estimate and
``r = ceil(32q)`` for the binary-search probes, with ``q = log(M − m) / ε``.
Those constants make the union bound of Theorem 4.5 go through but are far
larger than a simulation needs; :class:`RepetitionPolicy` therefore exposes
the multipliers and an optional cap.  ``RepetitionPolicy.paper()`` reproduces
the pseudocode exactly; ``RepetitionPolicy.practical()`` (the default used by
the benchmarks) keeps the same structure with a bounded number of repetitions
so large sweeps finish in reasonable time.  Experiment E9 quantifies the
effect of the cap.

Inside a search (APX_MEDIAN, APX_MEDIAN2) the repetitions' sweeps may go to
the search's :class:`~repro.protocols.tally.SweepTally` and be charged once
it is over (:meth:`RepeatedApproxCount.average`).  Each repetition draws its
salt and computes its estimate exactly as before; the per-node cost is
unchanged, and only the host-side order of charging changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._util.validation import require_positive
from repro.exceptions import ConfigurationError
from repro.network.node import ItemColumns
from repro.network.simulator import SensorNetwork
from repro.protocols.apx_count import ApproxCountProtocol
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.predicates import AllItemsPredicate, Predicate
from repro.protocols.tally import SweepTally


@dataclass(frozen=True)
class RepetitionPolicy:
    """How many APX_COUNT repetitions REP_COUNTP performs.

    Attributes:
        count_multiplier: multiplier of ``q`` for the initial COUNT estimate
            (the paper uses 2).
        probe_multiplier: multiplier of ``q`` for each binary-search probe
            (the paper uses 32).
        cap: optional upper bound on the repetitions of a single REP_COUNTP
            call; ``None`` reproduces the paper's counts verbatim.
        floor: lower bound on repetitions (at least one run is always made).
    """

    count_multiplier: float = 2.0
    probe_multiplier: float = 32.0
    cap: int | None = None
    floor: int = 1

    def __post_init__(self) -> None:
        if self.count_multiplier <= 0 or self.probe_multiplier <= 0:
            raise ConfigurationError("repetition multipliers must be positive")
        require_positive(self.floor, "floor")
        if self.cap is not None:
            require_positive(self.cap, "cap")
            if self.cap < self.floor:
                raise ConfigurationError("cap must be at least the floor")

    @classmethod
    def paper(cls) -> "RepetitionPolicy":
        """The constants of Fig. 2, with no cap."""
        return cls(count_multiplier=2.0, probe_multiplier=32.0, cap=None)

    @classmethod
    def practical(cls, cap: int = 8) -> "RepetitionPolicy":
        """Same structure as the paper but with at most ``cap`` repetitions."""
        return cls(count_multiplier=2.0, probe_multiplier=32.0, cap=cap)

    def _bounded(self, raw: float) -> int:
        repetitions = max(self.floor, int(math.ceil(raw)))
        if self.cap is not None:
            repetitions = min(repetitions, self.cap)
        return repetitions

    def count_repetitions(self, q: float) -> int:
        """Repetitions for the initial REP_COUNTP(·, TRUE) size estimate."""
        return self._bounded(self.count_multiplier * max(q, 1.0))

    def probe_repetitions(self, q: float) -> int:
        """Repetitions for one binary-search probe REP_COUNTP(·, "< y")."""
        return self._bounded(self.probe_multiplier * max(q, 1.0))


class RepeatedApproxCount:
    """REP_COUNTP(r, P): the average of ``r`` independent APX_COUNT runs."""

    def __init__(self, counter: ApproxCountProtocol) -> None:
        self._counter = counter

    def run(
        self,
        network: SensorNetwork,
        repetitions: int,
        predicate: Predicate | None = None,
        items: ItemColumns | None = None,
    ) -> ProtocolResult:
        """Run ``repetitions`` independent counts of items matching ``predicate``.

        The result's ``value`` is the averaged estimate (a float).  ``items``
        replaces the network's items, as in :meth:`ApproxCountProtocol.run`.
        """
        with MeteredRun(network) as metered:
            average = self.average(network, repetitions, predicate, items)
        return metered.result(average)

    def average(
        self,
        network: SensorNetwork,
        repetitions: int,
        predicate: Predicate | None = None,
        items: ItemColumns | None = None,
        tally: SweepTally | None = None,
    ) -> float:
        """The averaged estimate :meth:`run` returns, each repetition's
        sweeps charged on the spot or added to ``tally``
        (:meth:`ApproxCountProtocol.count`)."""
        require_positive(repetitions, "repetitions")
        effective_predicate = predicate if predicate is not None else AllItemsPredicate()
        total = 0.0
        for _ in range(repetitions):
            total += self._counter.count(
                network, predicate=effective_predicate, items=items, tally=tally
            ).estimate
        return total / repetitions

    @property
    def relative_sigma(self) -> float:
        """σ of a single underlying APX_COUNT invocation."""
        return self._counter.relative_sigma
