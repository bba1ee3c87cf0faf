"""Tests for the polyloglog median of Fig. 4 (Theorem 4.7 / Corollary 4.8)."""

import numpy as np
import pytest

from repro.core.apx_median2 import PolyloglogMedianProtocol, _log_length, _rescale
from repro.core.definitions import is_approximate_order_statistic, reference_median
from repro.core.median import DeterministicMedianProtocol
from repro.core.rep_count import RepetitionPolicy
from repro.exceptions import ConfigurationError, EmptyNetworkError
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links, line_links
from repro.workloads.generators import generate_workload


def _network(workload="uniform", n=144, side=12, max_value=1 << 17, seed=1):
    items = generate_workload(workload, n, max_value=max_value, seed=seed)
    return SensorNetwork.from_items(items, topology=grid_links(side)), items


class TestLengthTransform:
    def test_zero_is_defined(self):
        assert _log_length(0) == 0

    @pytest.mark.parametrize(
        "value, expected", [(1, 1), (2, 1), (3, 2), (7, 3), (8, 3), (1023, 10), (1024, 10)]
    )
    def test_floor_log_of_value_plus_one(self, value, expected):
        assert _log_length(value) == expected

    def test_domain_compression(self):
        # The whole point: a 2^20-sized domain compresses to ~21 lengths.
        assert _log_length((1 << 20) - 1) <= 20

    def test_exact_for_every_int64_item(self):
        # float64 rounds 2**62 - 1 up to 2**62: a float cast would say 62.
        values = np.array([2**62 - 2, 2**62 - 1, 2**63 - 1], dtype=np.int64)
        assert _log_length(values).tolist() == [61, 62, 63]


class TestRescale:
    def test_matches_python_ints_past_2_to_the_63(self):
        values = np.array([5, 2**40, 2**41 - 1], dtype=np.int64)
        low, num, den = 5, 2**40, 2**41 - 6
        expected = [1 + (value - low) * num // den for value in values.tolist()]
        assert _rescale(values, low, num, den).tolist() == expected
        assert _rescale(values[:1], low, num, den).tolist() == [1]


class TestConfiguration:
    def test_beta_epsilon_validated(self):
        with pytest.raises(ConfigurationError):
            PolyloglogMedianProtocol(beta=0.0)
        with pytest.raises(ConfigurationError):
            PolyloglogMedianProtocol(epsilon=0.0)
        with pytest.raises(Exception):
            PolyloglogMedianProtocol(beta=1.5)

    def test_empty_network_rejected(self):
        network = SensorNetwork.from_items([1], topology=line_links(1))
        network.clear_items()
        with pytest.raises(EmptyNetworkError):
            PolyloglogMedianProtocol().run(network)


class TestAccuracy:
    def test_value_error_within_beta_budget(self):
        network, items = _network(seed=2)
        beta = 1.0 / 16.0
        protocol = PolyloglogMedianProtocol(
            beta=beta, epsilon=0.25, num_registers=256, seed=7
        )
        outcome = protocol.run(network).value
        true_median = reference_median(items)
        # The zoom-in reaches the dyadic interval containing (an approximate)
        # median; allow the rank slack of the guarantee plus 2 beta of value slack.
        assert is_approximate_order_statistic(
            items, len(items) / 2.0, outcome.value,
            alpha=max(0.5, outcome.alpha_guarantee), beta=2 * beta,
        ) or abs(outcome.value - true_median) / max(items) <= 2 * beta

    def test_precision_improves_with_smaller_beta(self):
        network, items = _network(seed=3)
        true_median = reference_median(items)
        errors = {}
        for beta in (0.5, 1.0 / 64.0):
            protocol = PolyloglogMedianProtocol(
                beta=beta, epsilon=0.25, num_registers=256, seed=11
            )
            outcome = protocol.run(network).value
            errors[beta] = abs(outcome.value - true_median) / max(items)
        assert errors[1.0 / 64.0] <= errors[0.5] + 0.05

    def test_repeated_trials_mostly_succeed(self):
        network, items = _network(seed=4)
        beta = 1.0 / 16.0
        successes = 0
        trials = 6
        for trial in range(trials):
            protocol = PolyloglogMedianProtocol(
                beta=beta, epsilon=0.25, num_registers=256, seed=200 + trial
            )
            outcome = protocol.run(network).value
            if is_approximate_order_statistic(
                items, len(items) / 2.0, outcome.value,
                alpha=max(0.5, outcome.alpha_guarantee), beta=2 * beta,
            ):
                successes += 1
        assert successes >= trials - 2

    def test_all_equal_input(self):
        items = [500] * 49
        network = SensorNetwork.from_items(items, topology=grid_links(7))
        outcome = PolyloglogMedianProtocol(num_registers=64, seed=1).run(network).value
        assert abs(outcome.value - 500) <= 500 * 2 * outcome.beta + 1

    def test_output_within_domain(self):
        for seed in range(4):
            network, items = _network(seed=30 + seed, max_value=10_000)
            outcome = PolyloglogMedianProtocol(
                num_registers=64, seed=seed, domain_max=10_000
            ).run(network).value
            assert 0 <= outcome.value <= 10_000

    def test_network_items_untouched(self):
        network, items = _network(seed=5)
        PolyloglogMedianProtocol(num_registers=64, seed=2).run(network)
        assert network.all_items() == items


class TestStages:
    def test_stage_count_tracks_beta(self):
        network, _ = _network(seed=6)
        fine = PolyloglogMedianProtocol(beta=1.0 / 64.0, num_registers=64, seed=3)
        outcome = fine.run(network).value
        assert 1 <= len(outcome.stages) <= 6  # ceil(log2 64) = 6

    def test_stage_records_are_consistent(self):
        network, _ = _network(seed=7)
        outcome = PolyloglogMedianProtocol(
            beta=1.0 / 16.0, num_registers=64, seed=4
        ).run(network).value
        for record in outcome.stages:
            assert record.interval_width_scaled == 1 << record.mu_hat
            assert record.k >= 1.0
            assert record.original_scale <= 1.0 + 1e-9


class TestComplexity:
    def test_probe_messages_are_loglog_sized(self):
        # The dominant messages are LogLog sketches plus loglog-width
        # predicates; none of them should carry a full-width value.  We check
        # this indirectly: doubling the value-domain width barely moves the
        # per-node cost, while it visibly moves the deterministic protocol's.
        n, side = 100, 10
        costs = {}
        exact_costs = {}
        for max_value in (1 << 10, 1 << 20):
            items = generate_workload("uniform", n, max_value=max_value, seed=8)
            network = SensorNetwork.from_items(items, topology=grid_links(side))
            result = PolyloglogMedianProtocol(
                beta=1.0 / 8.0, num_registers=16, seed=5,
                repetition_policy=RepetitionPolicy.practical(cap=2),
                domain_max=max_value,
            ).run(network)
            costs[max_value] = result.max_node_bits
            network.reset_ledger()
            exact_costs[max_value] = DeterministicMedianProtocol(
                domain_max=max_value
            ).run(network).max_node_bits
        approx_growth = costs[1 << 20] / costs[1 << 10]
        exact_growth = exact_costs[1 << 20] / exact_costs[1 << 10]
        assert approx_growth < exact_growth

    def test_per_node_bits_flat_in_n(self):
        costs = []
        for side in (6, 12, 18):
            items = generate_workload("uniform", side * side, max_value=1 << 16, seed=9)
            network = SensorNetwork.from_items(items, topology=grid_links(side))
            result = PolyloglogMedianProtocol(
                beta=1.0 / 8.0, num_registers=16, seed=6,
                repetition_policy=RepetitionPolicy.practical(cap=2),
            ).run(network)
            costs.append(result.max_node_bits)
        assert max(costs) <= 1.8 * min(costs)
