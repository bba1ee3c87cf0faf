"""Durand–Flajolet LogLog counting.

This is the α-counting protocol behind the paper's Fact 2.2: with ``m``
registers the estimate has negligible bias (α < 10⁻⁶ for reasonable m) and
relative standard deviation ``σ ≈ 1.30 / sqrt(m)``, while the sketch occupies
only ``m`` registers of ``O(log log N)`` bits each.

Two usage modes matter for the reproduction:

* **Counting items / nodes** (the paper's COUNT and COUNTP): each contributor
  adds a *fresh random* 64-bit value (its own coin flips) so that every item is
  counted, including duplicates.  Use :meth:`add_random`.
* **Counting distinct values** (Section 5): each contributor adds the *hash of
  its item*, so duplicates collapse.  Use :meth:`add_item`.

Sketches merge by elementwise max, which makes the protocol order- and
duplicate-insensitive with respect to the communication subsystem — the
property Considine et al. and Nath et al. rely on and which our robustness
tests exercise with the duplicating radio model.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro._util.bits import bit_width
from repro._util.validation import require_positive
from repro.sketches.hashing import hash64, leading_rank

# Asymptotic constant of the LogLog estimator (Durand & Flajolet 2003).
_ALPHA_INFINITY = 0.39701
# Relative standard error constant: sigma ~= 1.30 / sqrt(m).
LOGLOG_SIGMA_CONSTANT = 1.30


def loglog_alpha(num_registers: int) -> float:
    """Bias-correction constant ``alpha_m`` of the LogLog estimator."""
    return _ALPHA_INFINITY * (1.0 - 0.31 / num_registers) if num_registers >= 2 else 0.5


def loglog_relative_sigma(num_registers: int) -> float:
    """Relative standard deviation of a LogLog estimate with ``m`` registers."""
    return LOGLOG_SIGMA_CONSTANT / math.sqrt(num_registers)


@dataclass
class LogLogSketch:
    """A LogLog cardinality sketch with ``num_registers`` registers."""

    num_registers: int = 64
    salt: int = 0
    registers: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        require_positive(self.num_registers, "num_registers")
        if self.num_registers & (self.num_registers - 1):
            raise ValueError(
                f"num_registers must be a power of two, got {self.num_registers}"
            )
        if not self.registers:
            self.registers = [0] * self.num_registers
        if len(self.registers) != self.num_registers:
            raise ValueError("register list length does not match num_registers")

    def _derived(self, registers: list[int]) -> "LogLogSketch":
        """A sketch with this one's (already validated) shape and salt.

        Skips ``__post_init__``: ``registers`` comes from sketches of this
        shape, so there is nothing for a constructor call to check again.
        """
        sketch = LogLogSketch.__new__(LogLogSketch)
        sketch.num_registers = self.num_registers
        sketch.salt = self.salt
        sketch.registers = registers
        return sketch

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def _add_hash(self, hashed: int) -> None:
        index = hashed & (self.num_registers - 1)
        remainder = hashed >> self.num_registers.bit_length() - 1
        rank = leading_rank(remainder, width=64 - (self.num_registers.bit_length() - 1))
        if rank > self.registers[index]:
            self.registers[index] = rank

    def add_item(self, value: int) -> None:
        """Add a value by hash — duplicates of the same value collapse."""
        self._add_hash(hash64(value, salt=self.salt))

    def add_random(self, rng: random.Random) -> None:
        """Add one fresh random contribution — every call increments the count."""
        self._add_hash(rng.getrandbits(64))

    # ------------------------------------------------------------------ #
    # Combination and queries
    # ------------------------------------------------------------------ #
    def merge(self, other: "LogLogSketch") -> "LogLogSketch":
        """Return the register-wise max combination (order/duplicate insensitive)."""
        if other.num_registers != self.num_registers:
            raise ValueError("cannot merge sketches with different register counts")
        if other.salt != self.salt:
            raise ValueError("cannot merge sketches built with different salts")
        return self._derived(list(map(max, self.registers, other.registers)))

    def merge_in_place(self, other: "LogLogSketch") -> None:
        """Fold ``other`` into this sketch without allocating a new one."""
        if other.num_registers != self.num_registers:
            raise ValueError("cannot merge sketches with different register counts")
        if other.salt != self.salt:
            raise ValueError("cannot merge sketches built with different salts")
        self.registers = list(map(max, self.registers, other.registers))

    def estimate(self) -> float:
        """LogLog cardinality estimate ``alpha_m * m * 2^(mean register)``."""
        if all(register == 0 for register in self.registers):
            return 0.0
        mean_rank = sum(self.registers) / self.num_registers
        raw = loglog_alpha(self.num_registers) * self.num_registers * 2.0 ** mean_rank
        # Small-range regime: when many registers are still empty the raw
        # estimator is badly biased; fall back to linear counting.
        zero_registers = self.registers.count(0)
        if zero_registers > 0 and raw < 2.5 * self.num_registers:
            return self.num_registers * math.log(self.num_registers / zero_registers)
        return raw

    @property
    def relative_sigma(self) -> float:
        """Relative standard deviation promised by Fact 2.2 for this ``m``."""
        return loglog_relative_sigma(self.num_registers)

    def serialized_bits(self, max_expected_count: int = 1 << 30) -> int:
        """Bits to transmit the sketch: ``m`` registers of ``O(log log N)`` bits."""
        max_rank = int(math.ceil(math.log2(max(2, max_expected_count)))) + 4
        return self.num_registers * bit_width(max_rank)

    def changed_registers(self, other: "LogLogSketch") -> int:
        """Number of register positions where this sketch differs from ``other``."""
        if other.num_registers != self.num_registers:
            raise ValueError("cannot compare sketches with different register counts")
        return sum(1 for a, b in zip(self.registers, other.registers) if a != b)

    def delta_bits(
        self, previous: "LogLogSketch", max_expected_count: int = 1 << 30
    ) -> int:
        """Bits to transmit this sketch to a receiver holding ``previous``.

        Registers only ever grow, so shipping the (index, new value) pairs of
        the changed registers — plus a small count header — reconstructs the
        sketch exactly.  Under a slowly-changing stream most registers are
        already saturated and the delta is a handful of bits, versus the ``m``
        registers :meth:`serialized_bits` charges for a full retransmission.
        """
        index_bits = bit_width(max(1, self.num_registers - 1))
        max_rank = int(math.ceil(math.log2(max(2, max_expected_count)))) + 4
        register_bits = bit_width(max_rank)
        changed = self.changed_registers(previous)
        # The count header must be able to say "all m registers changed".
        return changed * (index_bits + register_bits) + bit_width(self.num_registers)

    def copy(self) -> "LogLogSketch":
        return self._derived(list(self.registers))
