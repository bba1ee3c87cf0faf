"""The Set-Disjointness reduction of Theorem 5.1.

The proof of the Ω(n) lower bound maps a Two-Party Set Disjointness (2SD)
instance onto a sensor network:

* when nodes may hold many items, player A simulates the root and player B
  simulates everybody else (any topology works);
* when each node holds one item, a line of 2n nodes is split into a left half
  (player A's set) and a right half (player B's set).

Player A and B learn |X_A| and |X_B| (O(log n) bits), run any COUNT DISTINCT
protocol P on the union, and answer "disjoint" iff the count equals
|X_A| + |X_B|.  Since 2SD needs Ω(n) bits, so does P — every bit P sends
across the A/B cut is a bit of the 2SD conversation.

This module builds those adversarial instances and runs the reduction end to
end, so experiment E7 can (a) confirm the reduction decides disjointness
correctly when driven by the exact protocol, (b) measure the Ω(n) bits that
cross the cut, and (c) show that the approximate protocol — which avoids the
lower bound — gets the disjointness answer *wrong* on near-disjoint instances,
exactly the "difference of one flips the answer" phenomenon discussed at the
end of Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.randomness import make_rng
from repro._util.validation import require_positive
from repro.exceptions import ConfigurationError
from repro.network.simulator import SensorNetwork


@dataclass(frozen=True)
class DisjointnessInstance:
    """A 2SD instance embedded in a line sensor network (one item per node)."""

    set_a: tuple[int, ...]
    set_b: tuple[int, ...]
    domain_max: int

    @property
    def num_nodes(self) -> int:
        return len(self.set_a) + len(self.set_b)

    @property
    def disjoint(self) -> bool:
        return not (set(self.set_a) & set(self.set_b))

    @property
    def true_distinct_count(self) -> int:
        return len(set(self.set_a) | set(self.set_b))

    def build_network(self, **network_kwargs) -> SensorNetwork:
        """Embed the instance in a line of ``2n`` nodes, A on the left, B on the right.

        The root (node 0) belongs to player A's half, so every bit the
        protocol moves between the halves crosses the single cut edge in the
        middle of the line — the communication the reduction lower-bounds.
        """
        items = list(self.set_a) + list(self.set_b)
        return SensorNetwork.from_items(items, topology="line", **network_kwargs)

    def cut_edge(self) -> tuple[int, int]:
        """The line edge separating player A's nodes from player B's nodes."""
        boundary = len(self.set_a)
        return boundary - 1, boundary


def make_disjoint_instance(
    set_size: int, domain_max: int | None = None, seed: int | None = 0
) -> DisjointnessInstance:
    """Build an instance where the two sets share no element."""
    require_positive(set_size, "set_size")
    domain = domain_max if domain_max is not None else 4 * set_size
    if domain < 2 * set_size:
        raise ConfigurationError(
            "domain_max must be at least twice the set size for disjoint sets"
        )
    rng = make_rng(seed)
    universe = list(range(domain))
    rng.shuffle(universe)
    set_a = tuple(sorted(universe[:set_size]))
    set_b = tuple(sorted(universe[set_size : 2 * set_size]))
    return DisjointnessInstance(set_a=set_a, set_b=set_b, domain_max=domain)


def make_intersecting_instance(
    set_size: int,
    overlap: int = 1,
    domain_max: int | None = None,
    seed: int | None = 0,
) -> DisjointnessInstance:
    """Build an instance where the sets share exactly ``overlap`` elements.

    ``overlap=1`` is the hardest case for any protocol that only approximates
    the distinct count: a single shared value separates "disjoint" from
    "intersecting".
    """
    require_positive(set_size, "set_size")
    if not 0 < overlap <= set_size:
        raise ConfigurationError(
            f"overlap must lie in [1, {set_size}], got {overlap}"
        )
    base = make_disjoint_instance(set_size, domain_max=domain_max, seed=seed)
    rng = make_rng(None if seed is None else seed + 1)
    shared = rng.sample(list(base.set_a), overlap)
    set_b = list(base.set_b)
    replace_positions = rng.sample(range(len(set_b)), overlap)
    for position, value in zip(replace_positions, shared):
        set_b[position] = value
    return DisjointnessInstance(
        set_a=base.set_a, set_b=tuple(sorted(set_b)), domain_max=base.domain_max
    )


@dataclass(frozen=True)
class DisjointnessVerdict:
    """Outcome of the 2SD(P) reduction protocol."""

    reported_disjoint: bool
    truly_disjoint: bool
    distinct_count_reported: float
    distinct_count_true: int
    max_node_bits: int
    cut_bits: int

    @property
    def correct(self) -> bool:
        return self.reported_disjoint == self.truly_disjoint


def solve_disjointness_via_count_distinct(
    instance: DisjointnessInstance,
    count_distinct_protocol,
    tolerance: float = 0.0,
) -> DisjointnessVerdict:
    """Run the reduction of Theorem 5.1's proof.

    ``count_distinct_protocol`` is any object with ``run(network)`` returning a
    :class:`~repro.protocols.base.ProtocolResult` whose value is either the
    count itself or an object with an ``estimate`` attribute.  ``tolerance``
    allows an approximate count to still answer "disjoint" when it is within
    ``tolerance * (|A| + |B|)`` of the disjoint total — the experiment uses it
    to show that no tolerance setting gets near-disjoint instances right.
    """
    network = instance.build_network()
    result = count_distinct_protocol.run(network)
    raw_value = result.value
    count = float(getattr(raw_value, "estimate", raw_value))
    expected_if_disjoint = len(instance.set_a) + len(instance.set_b)
    reported_disjoint = abs(count - expected_if_disjoint) <= tolerance * expected_if_disjoint

    left, right = instance.cut_edge()
    cut_bits = min(
        network.ledger.node_bits(left), network.ledger.node_bits(right)
    )
    return DisjointnessVerdict(
        reported_disjoint=reported_disjoint,
        truly_disjoint=instance.disjoint,
        distinct_count_reported=count,
        distinct_count_true=instance.true_distinct_count,
        max_node_bits=result.max_node_bits,
        cut_bits=cut_bits,
    )
