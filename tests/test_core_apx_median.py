"""Tests for the approximate median / order statistics of Fig. 2 (Theorems 4.5/4.6)."""

import pytest

from repro.core.apx_median import (
    ApproximateMedianProtocol,
    ApproximateOrderStatisticProtocol,
)
from repro.core.definitions import (
    is_approximate_order_statistic,
    reference_median,
)
from repro.core.median import DeterministicMedianProtocol
from repro.core.rep_count import RepetitionPolicy
from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links, line_links
from repro.workloads.generators import generate_workload


def _network(workload="uniform", n=144, side=12, max_value=50_000, seed=1):
    items = generate_workload(workload, n, max_value=max_value, seed=seed)
    return SensorNetwork.from_items(items, topology=grid_links(side)), items


class TestConfiguration:
    def test_epsilon_bounds(self):
        with pytest.raises(ConfigurationError):
            ApproximateMedianProtocol(epsilon=0.0)
        with pytest.raises(Exception):
            ApproximateMedianProtocol(epsilon=1.5)

    def test_exactly_one_target(self):
        with pytest.raises(ConfigurationError):
            ApproximateOrderStatisticProtocol(quantile=0.5, k=10)
        with pytest.raises(ConfigurationError):
            ApproximateOrderStatisticProtocol(quantile=None, k=None)

    def test_invalid_quantile(self):
        with pytest.raises(ConfigurationError):
            ApproximateOrderStatisticProtocol(quantile=0.0)

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            ApproximateOrderStatisticProtocol(quantile=None, k=-3)

    def test_sigma_reflects_register_count(self):
        assert (
            ApproximateMedianProtocol(num_registers=256).sigma
            < ApproximateMedianProtocol(num_registers=16).sigma
        )


class TestAccuracy:
    def test_output_is_alpha_beta_median_with_good_sketch(self):
        network, items = _network(seed=2)
        protocol = ApproximateMedianProtocol(epsilon=0.2, num_registers=256, seed=5)
        outcome = protocol.run(network).value
        assert is_approximate_order_statistic(
            items,
            len(items) / 2.0,
            outcome.value,
            alpha=outcome.alpha_guarantee,
            beta=0.05,
        )

    def test_success_rate_across_trials(self):
        network, items = _network(seed=3)
        successes = 0
        trials = 10
        for trial in range(trials):
            protocol = ApproximateMedianProtocol(
                epsilon=0.2, num_registers=256, seed=100 + trial
            )
            outcome = protocol.run(network).value
            if is_approximate_order_statistic(
                items, len(items) / 2.0, outcome.value,
                alpha=outcome.alpha_guarantee, beta=0.05,
            ):
                successes += 1
        assert successes >= 8  # target is >= (1 - epsilon) = 0.8 of trials

    def test_value_is_near_true_median_in_value_terms(self):
        network, items = _network(workload="uniform", seed=4)
        protocol = ApproximateMedianProtocol(epsilon=0.2, num_registers=256, seed=9)
        outcome = protocol.run(network).value
        true_median = reference_median(items)
        assert abs(outcome.value - true_median) / max(items) < 0.25

    def test_all_equal_input(self):
        items = [77] * 64
        network = SensorNetwork.from_items(items, topology=grid_links(8))
        outcome = ApproximateMedianProtocol(num_registers=64, seed=1).run(network).value
        assert outcome.value == 77

    def test_two_value_input(self):
        items = [10] * 50 + [1000] * 14
        network = SensorNetwork.from_items(items, topology=grid_links(8))
        outcome = ApproximateMedianProtocol(num_registers=256, seed=2).run(network).value
        # Median is 10; allow the beta slack of the guarantee (value error).
        assert outcome.value <= 1000
        assert is_approximate_order_statistic(
            items, 32.0, outcome.value, alpha=outcome.alpha_guarantee, beta=0.05
        )

    def test_order_statistic_quantile_target(self):
        network, items = _network(seed=5)
        protocol = ApproximateOrderStatisticProtocol(
            epsilon=0.2, quantile=0.25, num_registers=256, seed=11
        )
        outcome = protocol.run(network).value
        assert is_approximate_order_statistic(
            items, 0.25 * len(items), outcome.value,
            alpha=max(0.3, outcome.alpha_guarantee), beta=0.1,
        )

    def test_order_statistic_absolute_k_target(self):
        network, items = _network(seed=6)
        protocol = ApproximateOrderStatisticProtocol(
            epsilon=0.2, quantile=None, k=30, num_registers=256, seed=13
        )
        outcome = protocol.run(network).value
        assert is_approximate_order_statistic(
            items, 30, outcome.value,
            alpha=max(0.4, outcome.alpha_guarantee), beta=0.1,
        )

    def test_empty_network_rejected(self):
        network = SensorNetwork.from_items([1], topology=line_links(1))
        network.clear_items()
        with pytest.raises(EmptyNetworkError):
            ApproximateMedianProtocol().run(network)


class TestOutcomeMetadata:
    def test_outcome_fields(self):
        network, items = _network(seed=7)
        outcome = ApproximateMedianProtocol(
            epsilon=0.25, num_registers=64, seed=3
        ).run(network).value
        assert outcome.epsilon == 0.25
        assert outcome.sigma == pytest.approx(1.30 / 8.0)
        assert outcome.alpha_guarantee == pytest.approx(3 * outcome.sigma)
        assert outcome.minimum <= outcome.value or outcome.halted_early
        assert outcome.probes >= 1
        assert outcome.n_estimate > 0

    def test_probe_count_bounded_by_log_spread(self):
        network, items = _network(seed=8)
        outcome = ApproximateMedianProtocol(num_registers=64, seed=4).run(network).value
        spread = outcome.maximum - outcome.minimum
        assert outcome.iterations <= spread.bit_length() + 1


class TestComplexity:
    def test_paper_policy_uses_more_communication_than_practical(self):
        network, _ = _network(n=36, side=6, seed=9)
        practical = ApproximateMedianProtocol(
            epsilon=0.5, num_registers=16, seed=1,
            repetition_policy=RepetitionPolicy.practical(cap=2),
        ).run(network)
        network.reset_ledger()
        heavier = ApproximateMedianProtocol(
            epsilon=0.5, num_registers=16, seed=1,
            repetition_policy=RepetitionPolicy.practical(cap=8),
        ).run(network)
        assert heavier.max_node_bits > practical.max_node_bits

    def test_per_node_bits_essentially_flat_in_n(self):
        costs = []
        for side in (6, 12, 18):
            items = generate_workload("uniform", side * side, max_value=1 << 16, seed=10)
            network = SensorNetwork.from_items(items, topology=grid_links(side))
            result = ApproximateMedianProtocol(
                epsilon=0.25, num_registers=16, seed=2,
                repetition_policy=RepetitionPolicy.practical(cap=2),
            ).run(network)
            costs.append(result.max_node_bits)
        # Item count grows 9x while the domain stays fixed; the cost should
        # stay within a small constant factor (it depends on log X̄ and m only).
        assert max(costs) <= 1.6 * min(costs)

    def test_early_halt_saves_probes(self):
        # With a huge tolerance band the very first probe already lands inside
        # the acceptance region, so the algorithm halts early.
        network, _ = _network(seed=11)
        outcome = ApproximateMedianProtocol(
            epsilon=0.5, num_registers=4, seed=5
        ).run(network).value
        assert outcome.halted_early or outcome.probes <= outcome.iterations + 1


class TestAgainstDeterministic:
    def test_approximate_never_leaves_value_range(self):
        for seed in range(5):
            network, items = _network(seed=20 + seed)
            outcome = ApproximateMedianProtocol(
                num_registers=64, seed=seed
            ).run(network).value
            assert min(items) <= outcome.value <= max(items) or outcome.halted_early

    def test_agrees_with_deterministic_on_wide_spread_input(self):
        items = [i * 1000 for i in range(64)]
        network = SensorNetwork.from_items(items, topology=grid_links(8))
        exact = DeterministicMedianProtocol().run(network).value.median
        network.reset_ledger()
        approx = ApproximateMedianProtocol(num_registers=256, seed=6).run(network).value
        assert abs(approx.value - exact) / max(items) < 0.25
