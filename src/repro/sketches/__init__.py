"""Sketching data structures.

These are the pure (single-machine) data structures that the distributed
protocols serialise and merge up the spanning tree:

* :mod:`repro.sketches.loglog` — the Durand–Flajolet LogLog counter behind the
  paper's Fact 2.2 (α-counting with ``O(m log log N)`` bits).
* :mod:`repro.sketches.hyperloglog` — the harmonic-mean refinement, provided
  for comparison experiments.
* :mod:`repro.sketches.gk_summary` / :mod:`repro.sketches.qdigest` — quantile
  summaries used by the Greenwald–Khanna and q-digest baselines (Section 1,
  "concurrent results by others").
* :mod:`repro.sketches.sampling` — mergeable uniform sampling (the Nath et al.
  synopsis-diffusion baseline).
"""

from repro.sketches.gk_summary import GKSummary
from repro.sketches.hashing import hash64, hash_to_unit
from repro.sketches.hyperloglog import HyperLogLogSketch
from repro.sketches.loglog import LogLogSketch
from repro.sketches.qdigest import QDigest
from repro.sketches.sampling import MergeableSample

__all__ = [
    "GKSummary",
    "hash64",
    "hash_to_unit",
    "HyperLogLogSketch",
    "LogLogSketch",
    "QDigest",
    "MergeableSample",
]
