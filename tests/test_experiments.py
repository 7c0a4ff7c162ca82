"""Smoke and shape tests for the experiment harness (one per table/figure)."""

from __future__ import annotations

import math

import pytest

from repro.experiments.accuracy import format_accuracy_results, run_accuracy_experiment
from repro.experiments.case_er import (
    ALGORITHMS,
    format_er_quality_result,
    format_er_runtime_result,
    run_er_quality_experiment,
    run_er_runtime_experiment,
)
from repro.experiments.case_ppi import format_ppi_case_study, run_ppi_case_study
from repro.experiments.convergence import (
    convergence_deltas,
    format_convergence_results,
    run_convergence_experiment,
)
from repro.experiments.efficiency import format_efficiency_results, run_efficiency_experiment
from repro.experiments.measures import MEASURES, format_measures_results, run_measures_experiment
from repro.experiments.param_n import format_param_n_results, run_param_n_experiment
from repro.experiments.report import format_dataset_summary, format_table
from repro.experiments.scalability import (
    format_scalability_results,
    run_scalability_experiment,
)
from repro.er.records import AmbiguousNameSpec, generate_record_dataset


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(("a", "b"), [(1, 2.5), ("xx", 3.25)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.5000" in text

    def test_dataset_summary_lists_all(self):
        text = format_dataset_summary()
        for name in ("ppi1", "condmat", "dblp"):
            assert name in text


class TestMeasuresExperiment:
    def test_structure_and_bias_ranges(self):
        results = run_measures_experiment(datasets=("net",), num_pairs=6, iterations=3, seed=1)
        assert len(results) == 1
        result = results[0]
        assert set(result.series) == set(MEASURES)
        for measure in MEASURES[1:]:
            bias = result.biases[measure]
            assert 0.0 <= bias.minimum <= bias.average <= bias.maximum <= 1.0
        text = format_measures_results(results)
        assert "SimRank-III" in text

    def test_series_are_normalised(self):
        results = run_measures_experiment(datasets=("net",), num_pairs=5, iterations=3, seed=2)
        for series in results[0].series.values():
            assert series.min() >= 0.0
            assert series.max() <= 1.0 + 1e-12


class TestConvergenceExperiment:
    def test_deltas_shrink_with_iterations(self):
        results = run_convergence_experiment(
            datasets=("ppi1",), num_pairs=6, max_iterations=6, seed=3
        )
        result = results[0]
        assert len(result.average) == 6
        deltas = convergence_deltas(result)
        # Late-iteration changes must be (much) smaller than early ones —
        # the Fig. 8 stabilisation.
        assert deltas[-1] <= deltas[0] + 1e-12
        assert deltas[-1] < 0.01
        text = format_convergence_results(results)
        assert "avg. SimRank" in text

    def test_scores_monotone_bounded(self):
        results = run_convergence_experiment(
            datasets=("ppi1",), num_pairs=5, max_iterations=5, seed=4
        )
        result = results[0]
        assert all(0.0 <= value <= 1.0 for value in result.average)
        assert all(0.0 <= value <= 1.0 for value in result.maximum)
        assert all(m >= a for a, m in zip(result.average, result.maximum))


class TestEfficiencyExperiment:
    def test_reports_all_algorithms(self):
        results = run_efficiency_experiment(
            datasets=("net",), num_pairs=2, num_walks=100, prefixes=(1,), iterations=3, seed=5
        )
        assert len(results) == 1
        times = results[0].times_ms
        assert {"Baseline", "Sampling", "SR-TS(l=1)", "SR-SP(l=1)"} <= set(times)
        for label, value in times.items():
            assert math.isnan(value) or value >= 0.0
        text = format_efficiency_results(results, prefixes=(1,))
        assert "SR-SP(l=1)" in text

    def test_baseline_can_be_skipped(self):
        results = run_efficiency_experiment(
            datasets=("net",), num_pairs=1, num_walks=50, prefixes=(1,),
            iterations=3, seed=6, include_baseline=False,
        )
        assert math.isnan(results[0].times_ms["Baseline"])


class TestAccuracyExperiment:
    def test_error_structure(self):
        results = run_accuracy_experiment(
            datasets=("net",), num_pairs=4, num_walks=300, prefixes=(1, 3), iterations=3, seed=7
        )
        result = results[0]
        assert result.pairs_evaluated > 0
        for error in result.errors.values():
            assert error >= 0.0
        text = format_accuracy_results(results, prefixes=(1, 3))
        assert "SR-TS(l=3)" in text

    def test_full_prefix_has_zero_error(self):
        """SR-TS with l = n is exact, so its relative error must be 0."""
        results = run_accuracy_experiment(
            datasets=("net",), num_pairs=3, num_walks=50, prefixes=(3,), iterations=3, seed=8
        )
        assert results[0].errors["SR-TS(l=3)"] == pytest.approx(0.0, abs=1e-12)


class TestParamNExperiment:
    def test_series_structure(self):
        results = run_param_n_experiment(
            dataset="net", sample_sizes=(50, 200), num_pairs=3, iterations=3, seed=9
        )
        assert {series.algorithm for series in results} == {"SR-TS", "SR-SP"}
        for series in results:
            assert series.sample_sizes == [50, 200]
            assert len(series.times_ms) == 2
            assert all(t >= 0.0 for t in series.times_ms)
            assert all(e >= 0.0 for e in series.errors)
        text = format_param_n_results(results)
        assert "relative error" in text


class TestScalabilityExperiment:
    def test_series_structure(self):
        results = run_scalability_experiment(
            num_vertices=150, edge_counts=(300, 600), num_pairs=2, num_walks=100, iterations=3, seed=10
        )
        assert len(results) == 2
        for series in results:
            assert series.edge_counts == [300, 600]
            assert all(t > 0.0 for t in series.times_ms)
            assert all(e > 0 for e in series.realized_edges)
        text = format_scalability_results(results)
        assert "realised |E|" in text


class TestPPICaseStudy:
    def test_structure_and_agreement(self):
        result = run_ppi_case_study(k=6, query_k=3, num_walks=120, seed=11)
        assert len(result.top_pairs_usim) == 6
        assert len(result.top_pairs_dsim) == 6
        assert 0.0 <= result.usim_agreement <= 1.0
        assert result.query_protein
        assert len(result.top_similar_usim) <= 3
        text = format_ppi_case_study(result)
        assert "USIM pairs in a common complex" in text

    def test_usim_at_least_as_good_as_dsim(self):
        result = run_ppi_case_study(k=8, num_walks=150, seed=12)
        assert result.usim_agreement >= result.dsim_agreement


class TestERCaseStudy:
    @pytest.fixture(scope="class")
    def tiny_dataset(self):
        specs = [
            AmbiguousNameSpec("Tiny One", 2, 10),
            AmbiguousNameSpec("Tiny Two", 3, 12),
        ]
        return generate_record_dataset(specs, noise=0.1, rng=13)

    def test_quality_structure(self, tiny_dataset):
        result = run_er_quality_experiment(dataset=tiny_dataset, num_walks=80, seed=13)
        assert set(result.per_name) == {"Tiny One", "Tiny Two"}
        for per_algorithm in result.per_name.values():
            assert set(per_algorithm) == {name for name, _ in ALGORITHMS}
        averages = result.averages()
        for precision, recall, f1 in averages.values():
            assert 0.0 <= precision <= 1.0
            assert 0.0 <= recall <= 1.0
            assert 0.0 <= f1 <= 1.0
        text = format_er_quality_result(result)
        assert "Average" in text

    def test_runtime_structure(self):
        result = run_er_runtime_experiment(record_counts=(40, 64), num_walks=40, seed=14)
        assert len(result.record_counts) == 2
        for times in result.times_s.values():
            assert len(times) == 2
            assert all(t >= 0.0 for t in times)
        text = format_er_runtime_result(result)
        assert "SimER" in text
