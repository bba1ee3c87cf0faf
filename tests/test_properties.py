"""Property-based tests (hypothesis) for the core invariants.

These cover the properties the paper's proofs rest on:

* the deterministic median/order-statistic protocol is *always* exact,
  regardless of the input multiset or topology (Theorem 3.2 / Lemma 3.1);
* the rank-function / order-statistic definitions are mutually consistent;
* sketch merging is commutative, associative-in-effect and duplicate
  insensitive (what makes tree aggregation correct);
* the ledger's arithmetic is conserved (sent bits equal received bits).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.definitions import (
    is_approximate_order_statistic,
    is_order_statistic,
    rank,
    reference_median,
    reference_order_statistic,
)
from repro.core.median import DeterministicMedianProtocol
from repro.core.order_statistics import DeterministicOrderStatisticProtocol
from repro.distinct.exact import ExactDistinctCountProtocol
from repro.network.accounting import CommunicationLedger
from repro.network.simulator import SensorNetwork
from repro.network.spanning_tree import bounded_degree_tree
from repro.network.topology import line_links, random_geometric_links
from repro.protocols.aggregates import CountProtocol, MaxProtocol, MinProtocol, SumProtocol
from repro.protocols.countp import CountPredicateProtocol
from repro.protocols.predicates import LessThanPredicate
from repro.sketches.gk_summary import GKSummary
from repro.sketches.loglog import LogLogSketch
from repro.sketches.qdigest import QDigest

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

item_lists = st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=60)


def _rank_interval_error(values: list[int], answer: int, target_rank: float) -> float:
    """Distance from ``target_rank`` to the rank interval occupied by ``answer``.

    An answer value ``y`` "covers" every rank in ``[ℓ(y), ℓ(y + 1)]`` (ties sit
    at the same value), so the quantile error of ``y`` is the distance from the
    target rank to that interval, normalised by the multiset size.
    """
    low = rank(values, answer)
    high = rank(values, answer + 1)
    distance = max(0.0, low - target_rank, target_rank - high)
    return distance / len(values)


def _line_network(items: list[int]) -> SensorNetwork:
    return SensorNetwork.from_items(items, topology=line_links(len(items)))


class TestDefinitionProperties:
    @given(items=item_lists)
    @_slow
    def test_reference_median_satisfies_definition(self, items):
        assert is_order_statistic(items, len(items) / 2.0, reference_median(items))

    @given(items=item_lists, k_fraction=st.floats(min_value=0.01, max_value=1.0))
    @_slow
    def test_reference_order_statistic_satisfies_definition(self, items, k_fraction):
        k = max(1e-9, k_fraction * len(items))
        value = reference_order_statistic(items, k)
        assert is_order_statistic(items, k, value)

    @given(items=item_lists, threshold=st.integers(min_value=-10, max_value=5010))
    @_slow
    def test_rank_is_monotone(self, items, threshold):
        assert rank(items, threshold) <= rank(items, threshold + 1)
        assert 0 <= rank(items, threshold) <= len(items)

    @given(
        items=item_lists,
        alpha=st.floats(min_value=0.0, max_value=0.9),
        beta=st.floats(min_value=0.0, max_value=0.5),
    )
    @_slow
    def test_exact_median_is_approximate_median_for_any_slack(self, items, alpha, beta):
        median = reference_median(items)
        assert is_approximate_order_statistic(
            items, len(items) / 2.0, median, alpha=alpha, beta=beta
        )


class TestProtocolExactness:
    @given(items=item_lists)
    @_slow
    def test_median_protocol_always_exact(self, items):
        network = _line_network(items)
        result = DeterministicMedianProtocol().run(network)
        assert result.value.median == reference_median(items)

    @given(items=item_lists, data=st.data())
    @_slow
    def test_order_statistic_protocol_always_exact(self, items, data):
        k = data.draw(st.integers(min_value=1, max_value=len(items)))
        network = _line_network(items)
        result = DeterministicOrderStatisticProtocol(k=k).run(network)
        assert result.value.value == reference_order_statistic(items, k)

    @given(items=item_lists)
    @_slow
    def test_primitive_aggregates_match_python(self, items):
        network = _line_network(items)
        assert MinProtocol().run(network).value == min(items)
        assert MaxProtocol().run(network).value == max(items)
        assert CountProtocol().run(network).value == len(items)
        assert SumProtocol().run(network).value == sum(items)

    @given(items=item_lists, threshold=st.integers(min_value=0, max_value=5001))
    @_slow
    def test_countp_matches_rank(self, items, threshold):
        network = _line_network(items)
        protocol = CountPredicateProtocol(LessThanPredicate(threshold=threshold))
        assert protocol.run(network).value == rank(items, threshold)

    @given(items=item_lists)
    @_slow
    def test_exact_distinct_count(self, items):
        network = _line_network(items)
        assert ExactDistinctCountProtocol().run(network).value == len(set(items))


class TestSketchProperties:
    @given(
        left=st.lists(st.integers(min_value=0, max_value=10_000), max_size=200),
        right=st.lists(st.integers(min_value=0, max_value=10_000), max_size=200),
    )
    @_slow
    def test_loglog_merge_commutative_and_idempotent(self, left, right):
        a = LogLogSketch(num_registers=32, salt=9)
        b = LogLogSketch(num_registers=32, salt=9)
        for value in left:
            a.add_item(value)
        for value in right:
            b.add_item(value)
        assert a.merge(b).registers == b.merge(a).registers
        assert a.merge(a).registers == a.registers

    @given(values=st.lists(st.integers(min_value=0, max_value=10_000), max_size=300))
    @_slow
    def test_loglog_duplicate_insensitive(self, values):
        once = LogLogSketch(num_registers=32, salt=5)
        twice = LogLogSketch(num_registers=32, salt=5)
        for value in values:
            once.add_item(value)
            twice.add_item(value)
            twice.add_item(value)
        assert once.registers == twice.registers

    @given(
        values=st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=200),
        quantile=st.floats(min_value=0.05, max_value=0.95),
    )
    @_slow
    def test_qdigest_quantile_rank_error_bounded(self, values, quantile):
        digest = QDigest.from_values(values, universe_size=1024, compression=64)
        answer = digest.quantile(quantile)
        error = _rank_interval_error(values, answer, quantile * len(values))
        # Allow one item of slack: with tiny multisets rank granularity is 1/n.
        assert error <= 0.35 + 1.0 / len(values)

    @given(
        values=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=300)
    )
    @_slow
    def test_gk_median_rank_error_bounded(self, values):
        summary = GKSummary.from_values(values, epsilon=0.1)
        answer = summary.median()
        error = _rank_interval_error(values, answer, len(values) / 2)
        # Allow one item of slack: with tiny multisets rank granularity is 1/n.
        assert error <= 0.3 + 1.0 / len(values)

    @given(
        left=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=150),
        right=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=150),
    )
    @_slow
    def test_gk_merge_count_conserved(self, left, right):
        merged = GKSummary.from_values(left, 0.1).merge(GKSummary.from_values(right, 0.1))
        assert merged.count == len(left) + len(right)
        total_weight = sum(t.g for t in merged.tuples)
        assert total_weight == len(left) + len(right)


class TestInfrastructureProperties:
    @given(
        charges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=512),
            ),
            max_size=60,
        )
    )
    @_slow
    def test_ledger_conservation(self, charges):
        ledger = CommunicationLedger()
        for sender, receiver, bits in charges:
            if sender == receiver:
                continue
            ledger.charge(sender, receiver, bits)
        total_sent = sum(ledger.traffic(node).bits_sent for node in ledger.nodes())
        total_received = sum(ledger.traffic(node).bits_received for node in ledger.nodes())
        assert total_sent == total_received == ledger.total_bits

    @given(
        num_nodes=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=1000),
        max_degree=st.integers(min_value=2, max_value=5),
    )
    @_slow
    def test_bounded_degree_tree_is_always_valid(self, num_nodes, seed, max_degree):
        graph = random_geometric_links(num_nodes, seed=seed)
        tree = bounded_degree_tree(graph, root=0, max_degree=max_degree)
        tree.validate(graph)
        assert tree.height <= num_nodes
