"""Deterministic random-number-generator plumbing.

All randomized components of the library (the LogLog sketches, the lossy radio
model, workload generators, gossip protocols) take an explicit seed or
``random.Random`` instance so experiments are reproducible.  This helper
centralises the seed-to-generator conversion.
"""

from __future__ import annotations

import random


def make_rng(seed: int | random.Random | None) -> random.Random:
    """Return a ``random.Random`` built from ``seed``.

    ``seed`` may be an integer, an existing generator (returned unchanged so
    state is shared intentionally), or ``None`` for an OS-seeded generator.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)
