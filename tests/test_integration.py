"""Integration and robustness tests: whole-pipeline scenarios across modules."""

import pytest

from repro import (
    ApproximateMedianProtocol,
    DeterministicMedianProtocol,
    EnergyModel,
    PolyloglogMedianProtocol,
    SensorNetwork,
    reference_median,
)
from repro.baselines.naive import NaiveShipAllMedianProtocol
from repro.core.definitions import is_approximate_order_statistic
from repro.distinct import ApproxDistinctCountProtocol, ExactDistinctCountProtocol
from repro.exceptions import DeliveryError
from repro.network.radio import DuplicatingRadio, LossyRadio
from repro.network.topology import grid_links, random_geometric_links
from repro.protocols.aggregates import AverageProtocol, CountProtocol, MaxProtocol
from repro.workloads.generators import correlated_field_values, generate_workload


class TestEndToEndScenario:
    """A full 'environmental monitoring' pipeline: field data, several queries."""

    @pytest.fixture
    def field_network(self):
        side = 12
        readings = correlated_field_values(side * side, max_value=4095, seed=21)
        network = SensorNetwork.from_items(readings, topology=grid_links(side))
        return network, readings

    def test_sequence_of_queries_shares_one_network(self, field_network):
        network, readings = field_network
        count = CountProtocol().run(network).value
        maximum = MaxProtocol().run(network).value
        average = AverageProtocol().run(network).value
        median = DeterministicMedianProtocol().run(network).value.median
        assert count == len(readings)
        assert maximum == max(readings)
        assert average == pytest.approx(sum(readings) / len(readings))
        assert median == reference_median(readings)

    def test_ledger_accumulates_across_queries(self, field_network):
        network, _ = field_network
        CountProtocol().run(network)
        after_count = network.ledger.total_bits
        DeterministicMedianProtocol().run(network)
        assert network.ledger.total_bits > after_count
        breakdown = network.ledger.per_protocol_bits()
        assert "COUNT" in breakdown and "COUNTP" in breakdown

    def test_energy_report_identifies_hot_nodes(self, field_network):
        network, _ = field_network
        DeterministicMedianProtocol().run(network)
        report = EnergyModel().report(network.ledger)
        hot_node = max(report.per_node_nj, key=report.per_node_nj.get)
        # The hottest node is near the root (it relays every probe).
        assert network.tree.depth[hot_node] <= 2

    def test_exact_and_approximate_agree_in_rank_terms(self, field_network):
        network, readings = field_network
        exact = DeterministicMedianProtocol().run(network).value.median
        approx = ApproximateMedianProtocol(num_registers=256, seed=5).run(network).value
        poly = PolyloglogMedianProtocol(num_registers=256, seed=5).run(network).value
        for estimate in (approx.value, poly.value):
            assert is_approximate_order_statistic(
                readings, len(readings) / 2.0, estimate, alpha=0.6, beta=0.15
            )
        assert exact == reference_median(readings)


class TestRobustnessToLinkFailures:
    def test_median_correct_over_lossy_links(self):
        items = generate_workload("uniform", 49, max_value=10_000, seed=22)
        network = SensorNetwork.from_items(
            items,
            topology=grid_links(7),
            radio=LossyRadio(loss_rate=0.3, seed=9, max_retries=64),
        )
        result = DeterministicMedianProtocol().run(network)
        assert result.value.median == reference_median(items)

    def test_lossy_links_cost_more_bits(self):
        items = generate_workload("uniform", 49, max_value=10_000, seed=23)
        reliable = SensorNetwork.from_items(items, topology=grid_links(7))
        lossy = SensorNetwork.from_items(
            items,
            topology=grid_links(7),
            radio=LossyRadio(loss_rate=0.4, seed=11, max_retries=64),
        )
        reliable_bits = DeterministicMedianProtocol().run(reliable).total_bits
        lossy_bits = DeterministicMedianProtocol().run(lossy).total_bits
        assert lossy_bits > 1.2 * reliable_bits

    def test_hopeless_links_fail_loudly(self):
        items = [1, 2, 3, 4]
        network = SensorNetwork.from_items(
            items,
            topology=grid_links(2),
            radio=LossyRadio(loss_rate=0.99, seed=13, max_retries=1),
        )
        with pytest.raises(DeliveryError):
            DeterministicMedianProtocol().run(network)

    def test_duplicating_links_do_not_change_answers(self):
        items = generate_workload("zipf", 64, max_value=10_000, seed=24)
        network = SensorNetwork.from_items(
            items,
            topology=grid_links(8),
            radio=DuplicatingRadio(duplicate_rate=0.4, seed=15),
        )
        assert DeterministicMedianProtocol().run(network).value.median == reference_median(items)
        network.reset_ledger()
        assert ExactDistinctCountProtocol().run(network).value == len(set(items))


class TestScalingContrast:
    """The headline contrast of the paper, end to end."""

    def test_exact_median_beats_naive_and_distinct_contrast_holds(self):
        sizes = (64, 256)
        median_costs, naive_costs = [], []
        exact_distinct_costs, approx_distinct_costs = [], []
        for n in sizes:
            items = generate_workload("uniform", n, max_value=n * n, seed=25)
            network = SensorNetwork.from_items(
                items, topology=random_geometric_links(n, seed=3)
            )
            median_costs.append(
                DeterministicMedianProtocol(domain_max=n * n).run(network).max_node_bits
            )
            network.reset_ledger()
            naive_costs.append(
                NaiveShipAllMedianProtocol(domain_max=n * n).run(network).max_node_bits
            )
            network.reset_ledger()
            exact_distinct_costs.append(
                ExactDistinctCountProtocol().run(network).max_node_bits
            )
            network.reset_ledger()
            approx_distinct_costs.append(
                ApproxDistinctCountProtocol(num_registers=64, seed=7).run(network).max_node_bits
            )
        # Naive and exact-distinct grow roughly linearly (4x items -> ~3x+ bits);
        # the paper's median and the loglog distinct counter grow slowly.
        assert naive_costs[1] / naive_costs[0] > 2.5
        assert exact_distinct_costs[1] / exact_distinct_costs[0] > 2.5
        assert median_costs[1] / median_costs[0] < 2.0
        assert approx_distinct_costs[1] / approx_distinct_costs[0] < 1.3
