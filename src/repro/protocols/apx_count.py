"""APX_COUNT — the α-counting protocol of Fact 2.2.

Each node folds its (predicate-matching) items into a small LogLog sketch;
sketches are merged register-wise up the spanning tree; the root reads off the
cardinality estimate.  Per Durand–Flajolet, with ``m`` registers the estimate
is essentially unbiased (α < 10⁻⁶) with relative standard deviation
``σ ≈ 1.30/√m``, and a sketch occupies ``m · O(log log N)`` bits — the
exponential saving over exact counting that Section 4 of the paper builds on.

Two counting modes are supported:

* ``"multiset"`` — every item contributes fresh randomness, so duplicates are
  counted (this realises the paper's APX_COUNT of |X|).  The draws are
  counter-based: the ``k``-th matching item of node ``v`` (0-based, in row
  order) contributes ``hash64(k, salt=hash64(v, salt=salt))``, a function of
  the node, the item's position and the invocation's salt.  Each invocation
  uses a fresh salt so repeated runs (REP_COUNTP) are independent.
* ``"distinct"`` — items contribute the hash of their value, so duplicates
  collapse (this is the approximate COUNT DISTINCT of Section 5, and it also
  makes the protocol duplicate-insensitive at the transport level).

The merge is a register-wise max, so the root's sketch is the sketch of all
the nodes' hashes together.  The ``"per-edge"`` reference builds one sketch
per node from the scalar :func:`~repro.sketches.hashing.hash64` and merges
them up the tree.  Every other execution path hashes every tree item at once
with its array twin :func:`~repro.sketches.hashing.hash64_array` (the same
bits), scatters the hashes into the root's registers with
:func:`~repro.sketches.registers.registers_from_hashes`, and charges the
same full sketch over every tree edge.

A search adds an invocation's two constant-size sweeps (``_SALT_BITS`` plus
the predicate down, one sketch up) to its
:class:`~repro.protocols.tally.SweepTally` instead
(:meth:`ApproxCountProtocol.count` with ``tally=``) and charges them all
once it is over.  The salt, the registers and the estimate are the same, and
so is the per-node cost; only the host-side order of charging changes.
:meth:`ApproxCountProtocol.run` charges on the spot and reports its exact
cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._util.randomness import make_rng
from repro._util.validation import require_positive
from repro.exceptions import ConfigurationError
from repro.network.node import ItemColumns
from repro.network.simulator import SensorNetwork
from repro.protocols.base import MeteredRun, ProtocolResult
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import charge_up_sweep, convergecast
from repro.protocols.predicates import AllItemsPredicate, Predicate
from repro.protocols.tally import SweepTally
from repro.sketches.hashing import hash64, hash64_array
from repro.sketches.hyperloglog import HyperLogLogSketch
from repro.sketches.loglog import LogLogSketch
from repro.sketches.registers import registers_from_hashes

if TYPE_CHECKING:
    from random import Random

_SALT_BITS = 32  # broadcast alongside the query so nodes agree on the hash salt

_SKETCH_TYPES = {
    "loglog": LogLogSketch,
    "hyperloglog": HyperLogLogSketch,
}


@dataclass(frozen=True)
class ApproxCountResult:
    """Root-side outcome of one APX_COUNT invocation."""

    estimate: float
    relative_sigma: float
    num_registers: int
    sketch_bits: int


class ApproxCountProtocol:
    """Distributed LogLog/HyperLogLog counting over the spanning tree.

    Args:
        num_registers: sketch size ``m`` (power of two).  Larger means lower
            variance and proportionally more bits per message.
        mode: ``"multiset"`` to count items with multiplicity, ``"distinct"``
            to count distinct values.
        sketch: ``"loglog"`` (the paper's reference [3]) or ``"hyperloglog"``.
        predicate: restrict counting to matching items (APX_COUNTP).
        seed: master seed; successive invocations derive fresh salts from it,
            so repeating the protocol yields independent estimates.
        max_expected_count: upper bound on the count used to size the register
            field width (defaults to 2³⁰, i.e. register width 5 bits).
    """

    def __init__(
        self,
        num_registers: int = 64,
        mode: str = "multiset",
        sketch: str = "loglog",
        predicate: Predicate | None = None,
        seed: int | Random | None = 0,
        max_expected_count: int = 1 << 30,
    ) -> None:
        require_positive(num_registers, "num_registers")
        if mode not in ("multiset", "distinct"):
            raise ConfigurationError(f"unknown counting mode {mode!r}")
        if sketch not in _SKETCH_TYPES:
            raise ConfigurationError(
                f"unknown sketch type {sketch!r}; known: {sorted(_SKETCH_TYPES)}"
            )
        self.num_registers = num_registers
        self.mode = mode
        self.sketch_type = sketch
        self.predicate = predicate if predicate is not None else AllItemsPredicate()
        self._rng = make_rng(seed)
        self.max_expected_count = max_expected_count

    # ------------------------------------------------------------------ #
    def _fresh_salt(self) -> int:
        return self._rng.getrandbits(48)

    def _empty_sketch(self, salt: int):
        sketch_cls = _SKETCH_TYPES[self.sketch_type]
        return sketch_cls(num_registers=self.num_registers, salt=salt)

    def _local_hashes(self, node_id: int, local: list[int], salt: int) -> list[int]:
        """The 64-bit contributions of one node's matching items: the
        specification the array path's :meth:`_tree_hashes` reproduces."""
        if self.mode == "distinct":
            return [hash64(value, salt=salt) for value in local]
        node_salt = hash64(node_id, salt=salt)
        return [hash64(rank, salt=node_salt) for rank in range(len(local))]

    def _tree_hashes(self, network, salt: int, matching: ItemColumns):
        """:meth:`_local_hashes` of every tree node's ``matching`` items, as
        one ``uint64`` array (tree order, each node's items in row order)."""
        rows = network.tree_rows
        counts = matching.lengths[rows]
        before = np.cumsum(counts) - counts
        ranks = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(before, counts)
        if self.mode == "distinct":
            slots = ranks + np.repeat(matching.ptr[rows], counts)
            return hash64_array(matching.values[slots], salt)
        node_salts = hash64_array(network.flat_tree.ids_array, salt)
        return hash64_array(ranks, np.repeat(node_salts, counts))

    def _local_sketch(self, salt: int, hashes: list[int]):
        sketch = self._empty_sketch(salt)
        for hashed in hashes:
            sketch._add_hash(hashed)
        return sketch

    @property
    def relative_sigma(self) -> float:
        """The σ of Definition 2.1 for the configured sketch size."""
        return self._empty_sketch(salt=0).relative_sigma

    def run(
        self,
        network: SensorNetwork,
        predicate: Predicate | None = None,
        items: ItemColumns | None = None,
    ) -> ProtocolResult:
        """Execute one α-counting invocation; ``value`` is an :class:`ApproxCountResult`.

        ``predicate`` overrides the one configured at construction for this
        invocation only (REP_COUNTP reuses one protocol object across many
        probes with different predicates).  ``items`` (other columns in the
        network's row order) replaces the network's items.
        """
        with MeteredRun(network) as metered:
            result = self.count(network, predicate, items)
        return metered.result(result)

    def count(
        self,
        network: SensorNetwork,
        predicate: Predicate | None = None,
        items: ItemColumns | None = None,
        tally: SweepTally | None = None,
    ) -> ApproxCountResult:
        """One invocation's root-side outcome, as :meth:`run` computes it.

        Its two sweeps are charged on the spot, or added to ``tally`` (see
        :mod:`repro.protocols.tally`): the salt, the registers and the
        estimate are the same either way.
        """
        effective_predicate = predicate if predicate is not None else self.predicate
        if items is None:
            items = network.item_columns
        salt = self._fresh_salt()
        sketch_bits = self._empty_sketch(salt).serialized_bits(self.max_expected_count)
        broadcast(
            network,
            {"query": "APX_COUNT", "salt": salt, "predicate": effective_predicate},
            _SALT_BITS + effective_predicate.encoded_bits(),
            protocol="APX_COUNT",
            tally=tally,
        )
        matching = items.select(effective_predicate.mask(items.values))
        if network.execution == "per-edge":
            rows = zip(network.node_ids(), matching.rows())
            merged = convergecast(
                network,
                [
                    self._local_sketch(salt, self._local_hashes(node_id, local, salt))
                    for node_id, local in rows
                ],
                lambda a, b: a.merge(b),
                sketch_bits,
                protocol="APX_COUNT",
            )
        else:
            # The root's sketch in one pass: every tree node's hashes
            # scattered into one set of registers.
            merged = self._empty_sketch(salt)
            merged.registers = registers_from_hashes(
                self._tree_hashes(network, salt, matching), self.num_registers
            ).tolist()
            # The size does not depend on the registers: every link
            # carries one full sketch.
            charge_up_sweep(
                network,
                np.full(network.flat_tree.num_nodes - 1, sketch_bits, dtype=np.int64),
                "APX_COUNT",
                tally,
            )
        return ApproxCountResult(
            estimate=merged.estimate(),
            relative_sigma=merged.relative_sigma,
            num_registers=self.num_registers,
            sketch_bits=sketch_bits,
        )
