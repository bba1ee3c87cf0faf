"""Input-data generators.

The paper's analysis is worst-case over all inputs, so the experiments sweep
several qualitatively different value distributions:

* ``uniform`` — the benign case;
* ``zipf`` — heavy duplication, which stresses COUNT DISTINCT and the rank
  error definitions (many equal values around the median);
* ``clustered`` / ``bimodal`` — values concentrated in a few narrow bands, the
  regime where the β (value-precision) parameter of Definition 2.4 matters;
* ``adversarial_near_median`` — half the probability mass packed into a tiny
  interval around the median, the hardest case for approximate rank probes;
* ``correlated_field`` — a synthetic sensor field (smooth spatial gradient
  plus noise), standing in for the temperature/light traces TAG-style systems
  were motivated by (no real deployment traces are publicly available, so the
  field is synthesised — see DESIGN.md);
* ``sequential`` / ``all_equal`` — degenerate corner cases.

All generators return a list of non-negative integers bounded by
``max_value``, one item per prospective sensor node, and are deterministic in
the ``seed`` argument.
"""

from __future__ import annotations

import math

from repro._util.randomness import make_rng
from repro._util.validation import require_non_negative, require_positive
from repro.exceptions import ConfigurationError


def uniform_values(count: int, max_value: int = 1 << 16, seed: int | None = 0) -> list[int]:
    """Independent uniform integers in ``[0, max_value]``."""
    require_positive(count, "count")
    require_non_negative(max_value, "max_value")
    rng = make_rng(seed)
    return [rng.randint(0, max_value) for _ in range(count)]


def sequential_values(count: int, max_value: int = 1 << 16, seed: int | None = 0) -> list[int]:
    """The integers 0, 1, 2, ... scaled to span ``[0, max_value]``."""
    require_positive(count, "count")
    del seed  # deterministic by construction
    if count == 1:
        return [0]
    return [round(index * max_value / (count - 1)) for index in range(count)]


def all_equal_values(count: int, max_value: int = 1 << 16, seed: int | None = 0) -> list[int]:
    """Every node holds the same value (the degenerate spread-zero case)."""
    require_positive(count, "count")
    del seed
    return [max_value // 2] * count


def zipf_values(
    count: int,
    max_value: int = 1 << 16,
    exponent: float = 1.2,
    distinct: int = 256,
    seed: int | None = 0,
) -> list[int]:
    """Zipf-distributed draws over ``distinct`` support points in ``[0, max_value]``."""
    require_positive(count, "count")
    require_positive(distinct, "distinct")
    if exponent <= 0:
        raise ConfigurationError(f"exponent must be positive, got {exponent}")
    rng = make_rng(seed)
    weights = [1.0 / (rank ** exponent) for rank in range(1, distinct + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    support = [
        round(index * max_value / max(1, distinct - 1)) for index in range(distinct)
    ]
    values = []
    for _ in range(count):
        u = rng.random()
        index = next(
            (i for i, threshold in enumerate(cumulative) if u <= threshold),
            distinct - 1,
        )
        values.append(support[index])
    return values


def clustered_values(
    count: int,
    max_value: int = 1 << 16,
    clusters: int = 4,
    cluster_width_fraction: float = 0.01,
    seed: int | None = 0,
) -> list[int]:
    """Values drawn from a few narrow clusters spread across the range."""
    require_positive(count, "count")
    require_positive(clusters, "clusters")
    rng = make_rng(seed)
    width = max(1, int(max_value * cluster_width_fraction))
    centres = [
        int((cluster + 0.5) * max_value / clusters) for cluster in range(clusters)
    ]
    values = []
    for _ in range(count):
        centre = rng.choice(centres)
        values.append(max(0, min(max_value, centre + rng.randint(-width, width))))
    return values


def bimodal_values(
    count: int,
    max_value: int = 1 << 16,
    low_fraction: float = 0.5,
    seed: int | None = 0,
) -> list[int]:
    """Two modes at 10% and 90% of the range; the median sits in whichever mode
    holds the larger fraction, far from the mean."""
    require_positive(count, "count")
    rng = make_rng(seed)
    low_centre = max_value // 10
    high_centre = 9 * max_value // 10
    spread = max(1, max_value // 50)
    values = []
    for _ in range(count):
        centre = low_centre if rng.random() < low_fraction else high_centre
        values.append(max(0, min(max_value, centre + rng.randint(-spread, spread))))
    return values


def adversarial_near_median_values(
    count: int,
    max_value: int = 1 << 16,
    dense_fraction: float = 0.5,
    seed: int | None = 0,
) -> list[int]:
    """Half the items packed within one part in 10⁴ of the range around the centre.

    Rank probes near the median see counts change very quickly with the probe
    value, so this is the stress case for the noise-tolerant binary search of
    Fig. 2 (small value error β still permits a large rank error α and vice
    versa).
    """
    require_positive(count, "count")
    rng = make_rng(seed)
    centre = max_value // 2
    dense_width = max(1, max_value // 10_000)
    values = []
    for _ in range(count):
        if rng.random() < dense_fraction:
            values.append(centre + rng.randint(-dense_width, dense_width))
        else:
            values.append(rng.randint(0, max_value))
    return [max(0, min(max_value, value)) for value in values]


def correlated_field_values(
    count: int,
    max_value: int = 1 << 16,
    noise_fraction: float = 0.05,
    hotspots: int = 3,
    seed: int | None = 0,
) -> list[int]:
    """A synthetic sensor field: smooth spatial gradient + hotspots + noise.

    Nodes are assumed to be laid out on a √count × √count grid in row-major
    order (matching :func:`repro.network.topology.grid_links`), so
    neighbouring nodes report similar values — the spatial correlation real
    deployments exhibit and TAG-style aggregation exploits.
    """
    require_positive(count, "count")
    rng = make_rng(seed)
    side = max(1, int(math.ceil(math.sqrt(count))))
    centres = [
        (rng.random() * (side - 1), rng.random() * (side - 1), rng.uniform(0.3, 1.0))
        for _ in range(hotspots)
    ]
    values = []
    for index in range(count):
        row, col = divmod(index, side)
        gradient = (row + col) / max(1, 2 * (side - 1))
        bump = 0.0
        for centre_row, centre_col, strength in centres:
            distance_sq = (row - centre_row) ** 2 + (col - centre_col) ** 2
            bump += strength * math.exp(-distance_sq / max(1.0, side))
        noise = rng.gauss(0.0, noise_fraction)
        level = min(1.0, max(0.0, 0.5 * gradient + 0.4 * bump / max(1, hotspots) + noise))
        values.append(int(round(level * max_value)))
    return values


WORKLOAD_GENERATORS = {
    "uniform": uniform_values,
    "sequential": sequential_values,
    "all_equal": all_equal_values,
    "zipf": zipf_values,
    "clustered": clustered_values,
    "bimodal": bimodal_values,
    "adversarial_near_median": adversarial_near_median_values,
    "correlated_field": correlated_field_values,
}
"""Name → generator map used by the experiment harness and the benchmarks."""


def generate_workload(
    name: str, count: int, max_value: int = 1 << 16, seed: int | None = 0
) -> list[int]:
    """Generate a named workload of ``count`` items bounded by ``max_value``."""
    if name not in WORKLOAD_GENERATORS:
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {sorted(WORKLOAD_GENERATORS)}"
        )
    return WORKLOAD_GENERATORS[name](count, max_value=max_value, seed=seed)
