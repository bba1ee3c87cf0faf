"""Per-node cost attribution: *which* nodes an epoch's bits landed on.

The paper's cost measure is per-node — the maximum over nodes of bits sent
plus received — yet the telemetry layer (PR 6) reports only aggregate
per-phase totals.  :class:`CostAttribution` closes that gap as an opt-in
sink on a :class:`~repro.telemetry.SpanTracer`: every time an ``epoch``
span closes, the sink reads the span's already-open
:class:`~repro.network.LedgerMark` (no second mark, no extra charge) and
folds the epoch's per-node bit deltas into one of two representations:

* **dense** — cumulative per-node bits as a numpy ``int64`` column indexed
  by node id, exact per-node history up to
  :attr:`CostAttribution.dense_limit` nodes;
* **sketch** — the million-node regime: each epoch's per-node bit
  *distribution* is compressed into the repository's own
  :class:`~repro.sketches.QDigest` (values log₂-bucketed, digest
  compression ``≈ 1/ε``) plus an exact top-``k`` hotspot heap, so retained
  state stays ``O(k + 1/ε)`` per epoch instead of ``O(n)`` — the
  observability layer summarised with the paper's own machinery.

Either way the sink *observes* the ledger and never charges it (the
telemetry cardinal rule; the overhead-guard test holds it to zero extra
bits), and each epoch lands in the JSONL trace as one
``"type": "attribution"`` line that :mod:`repro.telemetry.diagnose` and
``scripts/diagnose.py`` use to name hotspots in "why" reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sketches.qdigest import QDigest

#: The sketch's value domain: per-node epoch deltas are clamped into
#: ``[0, 2**UNIVERSE_BITS)`` (30 bits ≈ a gigabit on one node in one epoch,
#: far beyond anything the suppression machinery permits).
UNIVERSE_BITS = 30

#: Quantile fractions reported per epoch.
QUANTILE_FRACTIONS = (0.5, 0.9, 0.99)

#: Largest per-node epoch delta for which the dense fold derives its order
#: statistics from one ``np.bincount`` pass (the histogram then costs at
#: most 1 MiB) instead of an introselect over the delta column.
BINCOUNT_LIMIT = 1 << 17


def _hotspot_order(hotspot: tuple[int, int]) -> tuple[int, int]:
    """Sort key of a ``(node, bits)`` hotspot: more bits first, then the
    lowest node id — the one tie rule of every fold, at the top-``k`` cutoff
    and inside the list."""
    return -hotspot[1], hotspot[0]


@dataclass
class EpochAttribution:
    """One epoch's per-node bit distribution, compressed.

    ``hotspots`` is the exact top-``k`` of the epoch's per-node deltas as
    ``(node, bits)`` pairs, descending by bits, ties by ascending node id
    (whichever ledger or fold produced them); ``quantiles`` maps ``"p50"`` /
    ``"p90"`` / ``"p99"`` / ``"max"`` to bit values (digest-approximate in
    sketch mode, exact in dense mode); ``digest`` is the
    :class:`~repro.sketches.QDigest` itself in sketch mode (``None`` in
    dense mode, where the full delta vector was available).
    """

    epoch: int
    #: Sum of per-node deltas.  Every charged bit touches a sender and a
    #: receiver, so this is exactly twice the ledger's epoch ``total_bits``.
    node_bits: int
    #: Nodes with a non-zero delta this epoch.
    touched: int
    hotspots: list[tuple[int, int]]
    quantiles: dict[str, int]
    mode: str
    digest: QDigest | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """JSON-safe dict — one ``"type": "attribution"`` JSONL line."""
        record = {
            "type": "attribution",
            "epoch": self.epoch,
            "node_bits": self.node_bits,
            "touched": self.touched,
            "hotspots": [[int(node), int(bits)] for node, bits in self.hotspots],
            "quantiles": dict(self.quantiles),
            "mode": self.mode,
        }
        if self.digest is not None:
            record["sketch_entries"] = self.digest.size
            record["sketch_bits"] = self.digest.serialized_bits()
        return record


class CostAttribution:
    """Opt-in per-node cost sink fed from ledger-mark deltas.

    The fold keeps the dense column while the population stays at or
    below ``dense_limit`` and switches to the sketch above it (so
    ``dense_limit=0`` always sketches).  ``epsilon`` sets the q-digest
    compression (``compression ≈ 1/ε``); ``top_k`` the exact hotspot count.  ``span_name`` names the span whose close feeds the sink
    (the pipeline's per-epoch unit, ``"epoch"``).

    Attach to a tracer and run as usual::

        tracer = SpanTracer(attribution=CostAttribution(top_k=8))
        run_faulty_stream(engine, stream, faults, epochs, telemetry=tracer)
        node, bits, share = tracer.attribution.top_hotspot(epoch=3)
    """

    def __init__(
        self,
        *,
        top_k: int = 8,
        epsilon: float = 1 / 64,
        dense_limit: int = 200_000,
        span_name: str = "epoch",
    ) -> None:
        if top_k <= 0:
            raise ConfigurationError(f"top_k must be positive, got {top_k}")
        if not 0 < epsilon <= 1:
            raise ConfigurationError(
                f"epsilon must be in (0, 1], got {epsilon}"
            )
        self.top_k = top_k
        self.epsilon = epsilon
        self.compression = max(1, round(1 / epsilon))
        self.dense_limit = dense_limit
        self.span_name = span_name
        #: One :class:`EpochAttribution` per observed epoch, in order.
        self.epochs: list[EpochAttribution] = []
        #: Dense mode: cumulative per-node bits (numpy ``int64`` indexed by
        #: node id).  ``None`` until the first fold, and permanently ``None``
        #: in sketch mode — the memory-bound test asserts exactly this.
        self.cumulative: Any = None

    # ------------------------------------------------------------------ #
    # Feeding (driven by SpanTracer._close; manual driving also works)
    # ------------------------------------------------------------------ #
    def observe_span(self, span, ledger, mark):
        """Fold one closing span's ledger interval (called by the tracer).

        Returns the dense per-node delta array, so the tracer can reuse it
        for the span's ``max_node_bits`` instead of re-subtracting.
        """
        epoch = span.attributes.get("epoch")
        if epoch is None:
            epoch = len(self.epochs)
        return self.observe(int(epoch), ledger, mark)

    def observe(self, epoch: int, ledger, mark):
        """Fold the per-node deltas accumulated on ``mark`` since its start.

        Reads the mark without releasing it (the caller owns its
        lifecycle): one whole-array subtraction, whose delta array is
        returned.
        """
        deltas = ledger.node_delta_array(mark)
        self._fold_array(epoch, deltas)
        return deltas

    def _use_dense(self, population: int) -> bool:
        return population <= self.dense_limit

    def _fold_array(self, epoch: int, deltas) -> None:
        size = int(deltas.size)
        dense = self._use_dense(size)
        if dense:
            if self.cumulative is None or self.cumulative.size < size:
                grown = np.zeros(size, dtype=np.int64)
                if self.cumulative is not None:
                    grown[: self.cumulative.size] = self.cumulative
                self.cumulative = grown
            self.cumulative[:size] += deltas
        self._append_stats(epoch, deltas, dense)

    def _append_stats(self, epoch: int, deltas, dense: bool) -> None:
        """Append one epoch's statistics of the delta column ``deltas``
        (position ``i`` is node ``i``)."""
        size = int(deltas.size)
        digest = None
        hotspots: list[tuple[int, int]] = []
        quantiles = {"p50": 0, "p90": 0, "p99": 0, "max": 0}
        touched = 0
        node_bits = 0
        dmax = int(deltas.max()) if size else 0
        if dmax > 0:
            if (
                dense
                and dmax <= BINCOUNT_LIMIT
                and int(deltas.min()) >= 0
            ):
                # Fast path for the per-epoch regime: one counting pass
                # over the column yields the whole value histogram, and
                # every order statistic falls out of its prefix sums.
                touched, node_bits, quantiles, cutoff, k = (
                    self._stats_from_bincount(deltas, dmax)
                )
            else:
                positive = deltas[deltas > 0]
                touched = int(positive.size)
                node_bits = int(positive.sum())
                k = min(self.top_k, touched)
                # One multi-index introselect serves both the exact
                # quantiles and the top-k value cutoff.  Seeding the
                # selection at the median makes the near-end indices
                # almost free, where a lone kth at touched-k (or
                # np.argpartition) costs ~7x more on the heavily
                # duplicated delta columns real sweeps produce.
                indices = sorted(
                    {
                        min(touched - 1, int(fraction * touched))
                        for fraction in QUANTILE_FRACTIONS
                    }
                    | {touched - k}
                )
                selected = np.partition(positive, indices)
                cutoff = int(selected[touched - k])
                if dense:
                    quantiles = {
                        f"p{int(fraction * 100)}": int(
                            selected[min(touched - 1, int(fraction * touched))]
                        )
                        for fraction in QUANTILE_FRACTIONS
                    }
                    quantiles["max"] = int(selected[indices[-1] :].max())
                else:
                    digest = self._digest_from_buckets(
                        self._buckets_array(positive)
                    )
                    quantiles = self._digest_quantiles(digest)
            candidates = np.nonzero(deltas > cutoff)[0]
            if candidates.size < k:
                # Positions ascend with node ids: the lowest ids win.
                ties = np.nonzero(deltas == cutoff)[0][: k - candidates.size]
                candidates = np.concatenate([candidates, ties])
            hotspots = sorted(
                zip(candidates.tolist(), deltas[candidates].tolist()),
                key=_hotspot_order,
            )
        if not dense and digest is None:
            positive = deltas[deltas > 0]
            touched = int(positive.size)
            node_bits = int(positive.sum()) if touched else 0
            digest = self._digest_from_buckets(self._buckets_array(positive))
            quantiles = self._digest_quantiles(digest)
        self.epochs.append(
            EpochAttribution(
                epoch=epoch,
                node_bits=node_bits,
                touched=touched,
                hotspots=hotspots,
                quantiles=quantiles,
                mode="dense" if dense else "sketch",
                digest=digest,
            )
        )

    def _stats_from_bincount(self, deltas, dmax: int):
        """Exact fold statistics from one counting pass over the column.

        Per-node epoch deltas are small (heartbeats plus a few summaries),
        so the value histogram is tiny and every order statistic — the
        quantiles, the top-k cutoff, the positive count and their sum —
        reads straight off its prefix sums, replacing the O(n log n)-ish
        selection with a single O(n) pass.
        """
        counts = np.bincount(deltas)
        touched = int(deltas.size - counts[0])
        values = np.arange(counts.size, dtype=np.int64)
        node_bits = int(values @ counts)
        positive_cum = np.cumsum(counts[1:])

        def value_at(rank: int) -> int:
            # sorted(positive)[rank]: first value whose running count
            # exceeds the rank.
            return 1 + int(np.searchsorted(positive_cum, rank, side="right"))

        quantiles = {
            f"p{int(fraction * 100)}": value_at(
                min(touched - 1, int(fraction * touched))
            )
            for fraction in QUANTILE_FRACTIONS
        }
        quantiles["max"] = dmax
        k = min(self.top_k, touched)
        return touched, node_bits, quantiles, value_at(touched - k), k

    # ------------------------------------------------------------------ #
    # Sketch helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _buckets_array(positive) -> dict[int, int]:
        """Log₂ histogram of an array of positive deltas: {2^e: count}."""
        if not positive.size:
            return {}
        clamped = np.minimum(positive, (1 << UNIVERSE_BITS) - 1)
        exponents = np.frexp(clamped.astype(np.float64))[1] - 1
        counts = np.bincount(exponents)
        return {
            1 << exponent: int(count)
            for exponent, count in enumerate(counts.tolist())
            if count
        }

    def _digest_from_buckets(self, buckets: dict[int, int]) -> QDigest:
        digest = QDigest(
            universe_size=1 << UNIVERSE_BITS, compression=self.compression
        )
        for value, count in sorted(buckets.items()):
            digest.add(value, count)
        digest.compress()
        return digest

    @staticmethod
    def _digest_quantiles(digest: QDigest) -> dict[str, int]:
        if digest.total == 0:
            return {"p50": 0, "p90": 0, "p99": 0, "max": 0}
        quantiles = {
            f"p{int(fraction * 100)}": int(digest.quantile(fraction))
            for fraction in QUANTILE_FRACTIONS
        }
        quantiles["max"] = int(digest.quantile(1.0))
        return quantiles

    # ------------------------------------------------------------------ #
    # Queries and export
    # ------------------------------------------------------------------ #
    def epoch_record(self, epoch: int) -> EpochAttribution | None:
        """The attribution of epoch ``epoch`` (last fold wins), or ``None``."""
        for record in reversed(self.epochs):
            if record.epoch == epoch:
                return record
        return None

    def top_hotspot(self, epoch: int) -> tuple[int, int, float] | None:
        """``(node, bits, share)`` of the epoch's hottest node, or ``None``.

        ``share`` is the node's fraction of the epoch's summed per-node
        bits (1.0 when it carried everything).
        """
        record = self.epoch_record(epoch)
        if record is None or not record.hotspots:
            return None
        node, bits = record.hotspots[0]
        share = bits / record.node_bits if record.node_bits else 0.0
        return node, bits, share

    def state_entries(self) -> int:
        """Retained per-node-resolution entries — the memory-bound measure.

        Dense mode counts the cumulative column; sketch mode counts only
        hotspot pairs and surviving digest ranges, which is what keeps the
        million-node regime at ``O(epochs · (k + 1/ε))``.
        """
        entries = 0
        if self.cumulative is not None:
            entries += len(self.cumulative)
        for record in self.epochs:
            entries += len(record.hotspots)
            if record.digest is not None:
                entries += record.digest.size
        return entries

    def iter_dicts(self) -> Iterator[dict]:
        """JSON-safe dicts, one per observed epoch."""
        for record in self.epochs:
            yield record.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"CostAttribution(dense_limit={self.dense_limit}, epochs={len(self.epochs)}, "
            f"top_k={self.top_k}, compression={self.compression})"
        )
