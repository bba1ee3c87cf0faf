"""Tests for the baseline median protocols (experiment E8's contenders)."""

import pytest

from repro.baselines.gk_median import GKMedianProtocol
from repro.baselines.gossip_median import GossipMedianProtocol
from repro.baselines.naive import NaiveShipAllMedianProtocol
from repro.baselines.qdigest_median import QDigestMedianProtocol
from repro.baselines.sampling_median import SamplingMedianProtocol
from repro.core.definitions import rank, reference_median
from repro.core.median import DeterministicMedianProtocol
from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links, line_links, single_hop_links
from repro.workloads.generators import generate_workload


def _network(n=100, side=10, workload="uniform", max_value=50_000, seed=1):
    items = generate_workload(workload, n, max_value=max_value, seed=seed)
    return SensorNetwork.from_items(items, topology=grid_links(side)), items


def _rank_error(items, estimate):
    return abs(rank(items, estimate) - len(items) / 2) / len(items)


class TestNaiveMedian:
    def test_exact_answer(self):
        network, items = _network(seed=2)
        outcome = NaiveShipAllMedianProtocol().run(network).value
        assert outcome.median == reference_median(items)
        assert outcome.n == len(items)

    def test_exact_on_duplicate_heavy_input(self):
        network, items = _network(workload="zipf", seed=3)
        outcome = NaiveShipAllMedianProtocol(domain_max=50_000).run(network).value
        assert outcome.median == reference_median(items)

    def test_cost_linear_in_n(self):
        costs = {}
        for n in (36, 144):
            items = generate_workload("uniform", n, max_value=n * n, seed=4)
            network = SensorNetwork.from_items(items, topology=line_links(n))
            costs[n] = NaiveShipAllMedianProtocol(domain_max=n * n).run(network).max_node_bits
        assert costs[144] >= 3 * costs[36]

    def test_more_expensive_than_binary_search_median(self):
        network, items = _network(n=225, side=15, seed=5)
        naive_bits = NaiveShipAllMedianProtocol(domain_max=50_000).run(network).max_node_bits
        network.reset_ledger()
        smart_bits = DeterministicMedianProtocol(domain_max=50_000).run(network).max_node_bits
        assert naive_bits > 2 * smart_bits

    def test_empty_network_rejected(self):
        network = SensorNetwork.from_items([1], topology=line_links(1))
        network.clear_items()
        with pytest.raises(EmptyNetworkError):
            NaiveShipAllMedianProtocol().run(network)


class TestSamplingMedian:
    def test_rank_error_shrinks_with_sample_size(self):
        network, items = _network(n=400, side=20, seed=6)
        errors = {}
        for sample_size in (8, 128):
            network.reset_ledger()
            outcome = SamplingMedianProtocol(
                sample_size=sample_size, domain_max=50_000, salt=3
            ).run(network).value
            errors[sample_size] = _rank_error(items, outcome.median)
        assert errors[128] <= errors[8] + 0.05

    def test_reasonable_accuracy(self):
        network, items = _network(seed=7)
        outcome = SamplingMedianProtocol(sample_size=64, domain_max=50_000).run(network).value
        assert _rank_error(items, outcome.median) < 0.2

    def test_sample_size_validated(self):
        with pytest.raises(Exception):
            SamplingMedianProtocol(sample_size=0)

    def test_cost_scales_with_sample_size(self):
        network, _ = _network(seed=8)
        small = SamplingMedianProtocol(sample_size=8, domain_max=50_000).run(network)
        network.reset_ledger()
        large = SamplingMedianProtocol(sample_size=64, domain_max=50_000).run(network)
        assert large.max_node_bits > 2 * small.max_node_bits


class TestGKMedian:
    def test_rank_error_within_epsilon_budget(self):
        network, items = _network(n=400, side=20, seed=9)
        outcome = GKMedianProtocol(epsilon=0.05, domain_max=50_000).run(network).value
        # Merging along the tree can sum errors; stay within a small multiple.
        assert _rank_error(items, outcome.median) < 0.2

    def test_epsilon_validated(self):
        with pytest.raises(ConfigurationError):
            GKMedianProtocol(epsilon=0.0)

    def test_summary_size_reported(self):
        network, _ = _network(seed=10)
        outcome = GKMedianProtocol(epsilon=0.1, domain_max=50_000).run(network).value
        assert outcome.summary_size > 0

    def test_cheaper_than_naive_on_large_networks(self):
        network, _ = _network(n=400, side=20, seed=11)
        gk_bits = GKMedianProtocol(epsilon=0.1, domain_max=50_000).run(network).max_node_bits
        network.reset_ledger()
        naive_bits = NaiveShipAllMedianProtocol(domain_max=50_000).run(network).max_node_bits
        assert gk_bits < naive_bits


class TestQDigestMedian:
    def test_reasonable_accuracy(self):
        network, items = _network(n=400, side=20, seed=12)
        outcome = QDigestMedianProtocol(compression=64, domain_max=50_000).run(network).value
        assert _rank_error(items, outcome.median) < 0.2

    def test_accuracy_improves_with_compression_budget(self):
        network, items = _network(n=400, side=20, seed=13)
        errors = {}
        for compression in (4, 128):
            network.reset_ledger()
            outcome = QDigestMedianProtocol(
                compression=compression, domain_max=50_000
            ).run(network).value
            errors[compression] = _rank_error(items, outcome.median)
        assert errors[128] <= errors[4] + 0.05

    def test_digest_size_reported(self):
        network, _ = _network(seed=14)
        outcome = QDigestMedianProtocol(compression=16, domain_max=50_000).run(network).value
        assert outcome.digest_size > 0


class TestGossipMedian:
    def test_accuracy_on_well_mixing_topology(self):
        items = generate_workload("uniform", 64, max_value=10_000, seed=15)
        network = SensorNetwork.from_items(items, topology=single_hop_links(64))
        outcome = GossipMedianProtocol(seed=1).run(network).value
        assert _rank_error(items, outcome.median) < 0.25

    def test_probe_and_round_metadata(self):
        items = generate_workload("uniform", 36, max_value=1_000, seed=16)
        network = SensorNetwork.from_items(items, topology=grid_links(6))
        outcome = GossipMedianProtocol(seed=2, rounds_per_probe=20).run(network).value
        assert outcome.rounds_per_probe == 20
        assert outcome.probes >= 1

    def test_degenerate_equal_values(self):
        network = SensorNetwork.from_items([9] * 25, topology=grid_links(5))
        outcome = GossipMedianProtocol(seed=3).run(network).value
        assert outcome.median == 9

    def test_empty_network_rejected(self):
        network = SensorNetwork.from_items([1], topology=line_links(1))
        network.clear_items()
        with pytest.raises(EmptyNetworkError):
            GossipMedianProtocol().run(network)

    def test_uses_no_spanning_tree_messages(self):
        items = generate_workload("uniform", 36, max_value=1_000, seed=17)
        network = SensorNetwork.from_items(items, topology=grid_links(6))
        GossipMedianProtocol(seed=4, rounds_per_probe=10).run(network)
        breakdown = network.ledger.per_protocol_bits()
        assert "PUSH_SUM" in breakdown
        assert breakdown.get("COUNTP", 0) == 0
