"""Tests for predicates and the COUNTP protocol (Section 3.1)."""

import pytest

from repro.core.definitions import rank
from repro.exceptions import PredicateError
from repro.network.simulator import SensorNetwork
from repro.network.topology import line_topology
from repro.protocols.countp import CountPredicateProtocol
from repro.protocols.predicates import (
    AllItemsPredicate,
    LessThanPredicate,
    PowerThresholdPredicate,
)


class TestAllItemsPredicate:
    def test_always_true(self):
        predicate = AllItemsPredicate()
        assert predicate(0) and predicate(10**9)

    def test_constant_encoding(self):
        assert AllItemsPredicate().encoded_bits() <= 4

    def test_describe(self):
        assert AllItemsPredicate().describe() == "TRUE"


class TestLessThanPredicate:
    def test_strictness(self):
        predicate = LessThanPredicate(threshold=10)
        assert predicate(9)
        assert not predicate(10)
        assert not predicate(11)

    def test_half_integer_threshold(self):
        predicate = LessThanPredicate(threshold=10.5)
        assert predicate(10)
        assert not predicate(11)

    def test_rejects_other_fractions(self):
        with pytest.raises(PredicateError):
            LessThanPredicate(threshold=10.3)

    def test_negative_threshold_matches_nothing(self):
        # Fig. 1's search radius can probe below the value range.
        predicate = LessThanPredicate(threshold=-3.5)
        assert not predicate(0)
        assert predicate.encoded_bits() > 0

    def test_encoding_uses_domain_width(self):
        wide = LessThanPredicate(threshold=5, domain_max=(1 << 20) - 1)
        narrow = LessThanPredicate(threshold=5, domain_max=31)
        assert wide.encoded_bits() > narrow.encoded_bits()
        assert narrow.encoded_bits() <= 2 + 5 + 2

    def test_encoding_without_domain_is_adaptive(self):
        small = LessThanPredicate(threshold=5)
        large = LessThanPredicate(threshold=1 << 20)
        assert small.encoded_bits() < large.encoded_bits()

    def test_probe_above_domain_still_encodable(self):
        predicate = LessThanPredicate(threshold=1 << 12, domain_max=100)
        assert predicate.encoded_bits() > 0

    def test_describe(self):
        assert "17" in LessThanPredicate(threshold=17).describe()


class TestPowerThresholdPredicate:
    def test_threshold_value(self):
        predicate = PowerThresholdPredicate(exponent=4, offset=-1)
        assert predicate.threshold == 15
        assert predicate(14)
        assert not predicate(15)

    def test_encoding_is_loglog_sized(self):
        # Describing "< 2^20" must be far cheaper than describing "< 1048576".
        power = PowerThresholdPredicate(exponent=20)
        explicit = LessThanPredicate(threshold=1 << 20)
        assert power.encoded_bits() < explicit.encoded_bits() / 2

    def test_rejects_negative_exponent(self):
        with pytest.raises(PredicateError):
            PowerThresholdPredicate(exponent=-1)


class TestCountPredicateProtocol:
    def test_counts_match_rank_function(self, small_network, small_items):
        for threshold in (0, 10, 42, 43, 1000):
            small_network.reset_ledger()
            protocol = CountPredicateProtocol(LessThanPredicate(threshold=threshold))
            assert protocol.run(small_network).value == rank(small_items, threshold)

    def test_true_predicate_equals_count(self, small_network, small_items):
        protocol = CountPredicateProtocol(AllItemsPredicate())
        assert protocol.run(small_network).value == len(small_items)

    def test_counts_multiple_items_per_node(self):
        network = SensorNetwork.from_items([1, 2, 3], topology=line_topology(3))
        network.assign_items({0: [5, 15, 25]})
        protocol = CountPredicateProtocol(LessThanPredicate(threshold=16))
        assert protocol.run(network).value == 4  # 5, 15 from node 0; 2, 3 from others

    def test_view_parameter(self, small_network, small_items):
        protocol = CountPredicateProtocol(
            LessThanPredicate(threshold=100),
            view=lambda node: [item * 10 for item in node.items],
        )
        expected = sum(1 for item in small_items if item * 10 < 100)
        assert protocol.run(small_network).value == expected

    def test_predicate_cost_charged_in_broadcast(self, small_network):
        cheap = CountPredicateProtocol(LessThanPredicate(threshold=1, domain_max=1))
        expensive = CountPredicateProtocol(
            LessThanPredicate(threshold=(1 << 30) - 1, domain_max=(1 << 30) - 1)
        )
        small_network.reset_ledger()
        cheap_bits = cheap.run(small_network).total_bits
        small_network.reset_ledger()
        expensive_bits = expensive.run(small_network).total_bits
        assert expensive_bits > cheap_bits
