"""Locally-computable predicates for the COUNTP protocol.

Section 3.1 of the paper requires that a predicate handed to COUNTP

* can be evaluated by each node on its own items (no communication),
* can be described in ``O(C_COUNT(N))`` bits so broadcasting it does not
  dominate the cost of the counting protocol itself.

Every predicate therefore knows its own encoding size
(:meth:`Predicate.encoded_bits`), which the broadcast phase of COUNTP charges
per tree edge, and evaluates on every item at once, exactly
(:meth:`Predicate.mask`).  The deterministic median only ever uses strict threshold
predicates ("< y") whose description is one value of the input domain — the
``O(log N)`` bits Theorem 3.2 accounts for.  The polyloglog algorithm probes
thresholds over the *logarithm* domain, whose descriptions are exponentially
shorter; the adaptive encoding below is what makes that saving visible in the
measured traffic.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro._util.bits import fixed_width_bits, varint_bits
from repro.exceptions import PredicateError
from repro.network.node import INT64_MAX

# Small constant opcode identifying the predicate type on the wire.
_OPCODE_BITS = 2


def _below(values, bound: int):
    """``values < bound`` for an array of items (non-negative int64) and any
    Python int ``bound``, clamped into int64 range first."""
    return values <= min(max(bound - 1, -1), INT64_MAX)


class Predicate(abc.ABC):
    """A predicate on item values, evaluable locally and encodable compactly."""

    @abc.abstractmethod
    def mask(self, values):
        """Evaluate the predicate on an int64 array of items (a bool array)."""

    @abc.abstractmethod
    def encoded_bits(self) -> int:
        """Number of bits needed to broadcast this predicate's description."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable description, e.g. ``"< 17"``."""

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}({self.describe()})"


@dataclass(frozen=True)
class AllItemsPredicate(Predicate):
    """The TRUE predicate: ``COUNTP(X, TRUE)`` is just ``COUNT(X)``."""

    def mask(self, values):
        return np.ones(values.shape, dtype=bool)

    def encoded_bits(self) -> int:
        return _OPCODE_BITS

    def describe(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class LessThanPredicate(Predicate):
    """The strict threshold predicate ``"< threshold"`` used by the median search.

    ``domain_max`` is the known upper bound on item values (the paper's X̄);
    when provided the threshold is encoded with a fixed-width field, otherwise
    a self-delimiting encoding is charged.  The threshold may be fractional
    (the binary search probes midpoints like ``y + 1/2``); one extra bit
    encodes the half, and one more the sign — the search radius of Fig. 1
    extends slightly past the value range, so probes below zero are legal
    (they simply match nothing).
    """

    threshold: float
    domain_max: int | None = None

    def __post_init__(self) -> None:
        doubled = self.threshold * 2
        if abs(doubled - round(doubled)) > 1e-9:
            raise PredicateError(
                "threshold must be an integer or an integer plus one half, "
                f"got {self.threshold}"
            )

    def mask(self, values):
        # An integer lies below t exactly when it lies below ceil(t).
        return _below(values, math.ceil(self.threshold))

    def encoded_bits(self) -> int:
        integer_part = abs(int(self.threshold))
        half_and_sign_bits = 2
        if self.domain_max is not None:
            if integer_part > self.domain_max:
                # A probe outside the known domain is legal (it matches either
                # everything or nothing) but must still be encodable; charge
                # its own width.
                return _OPCODE_BITS + varint_bits(integer_part) + half_and_sign_bits
            return _OPCODE_BITS + fixed_width_bits(self.domain_max) + half_and_sign_bits
        return _OPCODE_BITS + varint_bits(integer_part) + half_and_sign_bits

    def describe(self) -> str:
        return f"< {self.threshold:g}"


@dataclass(frozen=True)
class PowerThresholdPredicate(Predicate):
    """The predicate ``value < 2^exponent + offset`` described only by its exponent.

    Algorithm APX_MEDIAN2 (Line 3.4 of Fig. 4) counts the items below the
    dyadic boundary ``2^{\\hat\\mu}``.  Because the boundary is a power of two,
    the predicate's description is just the exponent — ``O(log log X̄)`` bits —
    which is what keeps the whole protocol polyloglog.  ``offset`` allows the
    boundary to be shifted by a known constant (the library uses ``-1`` for its
    ``floor(log2(x + 1))`` length transform).
    """

    exponent: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise PredicateError(
                f"exponent must be non-negative, got {self.exponent}"
            )

    @property
    def threshold(self) -> int:
        return (1 << self.exponent) + self.offset

    def mask(self, values):
        return _below(values, self.threshold)

    def encoded_bits(self) -> int:
        return _OPCODE_BITS + varint_bits(self.exponent) + 2

    def describe(self) -> str:
        return f"< 2^{self.exponent}{self.offset:+d}"
