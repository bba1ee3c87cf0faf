"""Tests for the analysis layer: metrics, theory envelopes, reports, experiment runners."""

import math

import pytest

from repro.analysis.experiments import (
    build_network,
    default_domain,
    run_apx_median_study,
    run_baseline_comparison,
    run_count_distinct_study,
    run_exact_median_study,
    run_primitive_aggregates_study,
)
from repro.analysis.metrics import (
    fit_against_model,
    fit_growth_exponent,
    median_accuracy,
)
from repro.analysis.report import format_table
from repro.analysis.theory import (
    apx_median_bits_envelope,
    approx_distinct_bits_envelope,
    exact_distinct_bits_envelope,
    exact_median_bits_envelope,
    naive_median_bits_envelope,
    polyloglog_median_bits_envelope,
    predicted_crossover,
)
from repro.exceptions import ConfigurationError


class TestMetrics:
    def test_median_accuracy_exact(self):
        items = [1, 2, 3, 4, 5]
        accuracy = median_accuracy(items, 3)
        assert accuracy.exact
        assert accuracy.value_error == 0.0

    def test_median_accuracy_off_by_value(self):
        items = [0, 100, 200, 300, 400]
        accuracy = median_accuracy(items, 220)
        assert not accuracy.exact
        assert accuracy.value_error == pytest.approx(20 / 400)

    def test_median_accuracy_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            median_accuracy([], 1)

    def test_fit_growth_exponent_linear(self):
        sizes = [10, 20, 40, 80]
        costs = [5 * size for size in sizes]
        exponent, constant = fit_growth_exponent(sizes, costs)
        assert exponent == pytest.approx(1.0, abs=0.01)
        assert constant == pytest.approx(5.0, rel=0.05)

    def test_fit_growth_exponent_polylog_is_flat(self):
        sizes = [2 ** k for k in range(5, 13)]
        costs = [math.log2(size) ** 2 for size in sizes]
        exponent, _ = fit_growth_exponent(sizes, costs)
        assert exponent < 0.5

    def test_fit_growth_requires_two_points(self):
        with pytest.raises(ConfigurationError):
            fit_growth_exponent([10], [100])

    def test_fit_against_model_flat_ratio(self):
        sizes = [100, 1000, 10_000]
        costs = [7 * math.log2(size) ** 2 for size in sizes]
        constant, spread = fit_against_model(
            sizes, costs, lambda n: math.log2(n) ** 2
        )
        assert constant == pytest.approx(7.0, rel=0.01)
        assert spread == pytest.approx(1.0, rel=0.01)

    def test_fit_against_model_detects_wrong_model(self):
        sizes = [100, 1000, 10_000]
        costs = [size * 3 for size in sizes]
        _, spread = fit_against_model(sizes, costs, lambda n: math.log2(n) ** 2)
        assert spread > 10


class TestTheoryEnvelopes:
    def test_exact_median_is_polylog(self):
        assert exact_median_bits_envelope(1 << 20, 1 << 40) == pytest.approx(20 * 40)

    def test_polyloglog_grows_slower_than_exact(self):
        small_n, large_n = 2 ** 10, 2 ** 60
        exact_growth = exact_median_bits_envelope(large_n, large_n ** 2) / \
            exact_median_bits_envelope(small_n, small_n ** 2)
        approx_growth = polyloglog_median_bits_envelope(large_n) / \
            polyloglog_median_bits_envelope(small_n)
        assert approx_growth < exact_growth / 4

    def test_naive_is_linear(self):
        assert naive_median_bits_envelope(2000, 4_000_000) == pytest.approx(
            2 * naive_median_bits_envelope(1000, 4_000_000)
        )

    def test_distinct_envelopes(self):
        assert exact_distinct_bits_envelope(500) == 500
        assert approx_distinct_bits_envelope(1 << 20, num_registers=64) < 500

    def test_apx_median_envelope_scales_with_registers(self):
        assert apx_median_bits_envelope(1000, num_registers=256) > apx_median_bits_envelope(
            1000, num_registers=16
        )

    def test_envelopes_reject_nonpositive_n(self):
        with pytest.raises(ConfigurationError):
            exact_median_bits_envelope(0)

    def test_predicted_crossover_exists_for_small_constants(self):
        crossover = predicted_crossover(
            exact_constant=1.0, approx_constant=0.01, num_registers=16
        )
        assert crossover is not None and crossover > 1

    def test_predicted_crossover_none_when_approx_too_expensive(self):
        crossover = predicted_crossover(
            exact_constant=1.0, approx_constant=1e9, num_registers=256, max_exponent=50
        )
        assert crossover is None


class TestReport:
    def test_basic_table(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.0], ["beta", 12345.678]],
            title="Demo",
        )
        assert "Demo" in text
        assert "alpha" in text
        assert "1.23e+04" in text or "12345" in text

    def test_boolean_rendering(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_column_alignment(self):
        text = format_table(["a", "b"], [["x", "y"]])
        header, underline, row = text.splitlines()
        assert len(underline) >= len(header.rstrip())


class TestExperimentRunners:
    def test_default_domain_is_polynomial(self):
        assert default_domain(100) == 10_000

    def test_build_network_shapes(self):
        network, items, domain = build_network(36, workload="uniform", topology="grid")
        assert network.num_nodes == 36
        assert len(items) == 36
        assert domain == 36 * 36

    def test_primitive_study_covers_the_five_aggregates(self):
        for aggregate in ("MIN", "MAX", "COUNT", "SUM", "AVG"):
            measures = run_primitive_aggregates_study(
                [16], aggregate=aggregate, topology="line"
            ).measures
            assert measures["max_node_bits_n16"] > 0
        with pytest.raises(ConfigurationError, match=r"\['AVG', 'COUNT', 'MAX', 'MIN', 'SUM'\]"):
            run_primitive_aggregates_study([16], aggregate="MEDIAN")

    def test_exact_median_study_is_exact(self):
        for workload in ("uniform", "zipf"):
            measures = run_exact_median_study([25, 49], workload=workload).measures
            assert measures["exact_n25"] and measures["exact_n49"]

    def test_exact_median_study_answers_any_quantile(self):
        for quantile in (0.25, 0.5, 0.75):
            measures = run_exact_median_study([36], quantile=quantile).measures
            assert measures["answer_n36"] == measures["reference_n36"]

    def test_apx_median_study_summary(self):
        measures = run_apx_median_study(49, trials=3, num_registers=64).measures
        assert 0.0 <= measures["success_rate"] <= 1.0
        assert measures["success_rate"] * 3 == round(measures["success_rate"] * 3)

    def test_count_distinct_study_contrast(self):
        measures = run_count_distinct_study([64]).measures
        assert measures["exact_answer_n64"] == 64
        assert measures["exact_max_node_bits_n64"] > measures["approx_max_node_bits_n64"]

    def test_baseline_comparison_runs_every_contender(self):
        for protocol in (
            "fig1_median",
            "fig2_apx_median",
            "fig4_apx_median2",
            "naive_ship_all",
            "sampling",
            "gk_summary",
            "qdigest",
        ):
            measures = run_baseline_comparison(
                [36], protocol=protocol, apx_registers=16
            ).measures
            assert measures["max_node_bits_n36"] > 0
        with pytest.raises(ConfigurationError, match="fig1_median.*gossip.*naive_ship_all"):
            run_baseline_comparison([36], protocol="oracle")

    def test_repetition_cap_costs_increase_with_cap(self):
        low, high = (
            run_apx_median_study(
                36, trials=2, num_registers=16, repetition_cap=cap
            ).measures
            for cap in (1, 4)
        )
        assert high["mean_max_node_bits"] > low["mean_max_node_bits"]

    def test_degree_bound_reports_tree_stats(self):
        unbounded, bounded = (
            run_exact_median_study(
                [20], topology="single_hop", degree_bound=bound
            ).measures
            for bound in (None, 3)
        )
        assert unbounded["tree_degree_n20"] >= bounded["tree_degree_n20"]
