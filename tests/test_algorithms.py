"""Tests for the four SimRank computation algorithms and their agreement.

Covers the Baseline algorithm (exactness against the possible-world oracle),
the Sampling algorithm (unbiasedness / convergence, Lemma 4 sample size), the
two-phase algorithm (exact prefix, error ordering) and the SR-SP speed-up
(filter vectors, counting-table propagation, agreement with Sampling).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import (
    baseline_meeting_probabilities,
    baseline_simrank,
    baseline_simrank_all_pairs,
)
from repro.core.engine import SimRankEngine, compute_simrank
from repro.core.sampling import (
    estimate_meeting_probabilities,
    required_sample_size,
    sample_walk,
    sample_walks,
)
from repro.core.simrank import simrank_from_meeting_probabilities
from repro.core.speedup import (
    FilterVectors,
    meeting_probabilities_from_tables,
    propagate_counting_tables,
)
from repro.core.transition import exact_transition_matrices_by_enumeration
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError


class TestBaseline:
    def test_matches_possible_world_oracle(self, paper_graph):
        """s(n)(u, v) computed from the oracle transition matrices must match."""
        order = paper_graph.vertices()
        index = {v: i for i, v in enumerate(order)}
        iterations, decay = 4, 0.6
        oracle = exact_transition_matrices_by_enumeration(paper_graph, iterations, order)
        for u, v in [("v1", "v2"), ("v2", "v4"), ("v3", "v5")]:
            meetings = [
                float(oracle[k][index[u]] @ oracle[k][index[v]]) for k in range(iterations + 1)
            ]
            expected = simrank_from_meeting_probabilities(meetings, decay)
            result = baseline_simrank(paper_graph, u, v, decay=decay, iterations=iterations)
            assert result.score == pytest.approx(expected, abs=1e-10)

    def test_unknown_vertex_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            baseline_simrank(paper_graph, "v1", "nope")

    def test_all_pairs_matrix_symmetric_and_consistent(self, paper_graph):
        order = paper_graph.vertices()
        matrix = baseline_simrank_all_pairs(paper_graph, decay=0.6, iterations=3, order=order)
        assert np.allclose(matrix, matrix.T)
        index = {v: i for i, v in enumerate(order)}
        single = baseline_simrank(paper_graph, "v1", "v2", decay=0.6, iterations=3).score
        assert matrix[index["v1"], index["v2"]] == pytest.approx(single, abs=1e-10)

    def test_all_pairs_values_in_unit_interval(self, paper_graph):
        matrix = baseline_simrank_all_pairs(paper_graph, iterations=3)
        assert (matrix >= -1e-12).all() and (matrix <= 1.0 + 1e-12).all()

    def test_score_in_unit_interval(self, triangle_graph):
        result = baseline_simrank(triangle_graph, "a", "b", iterations=5)
        assert 0.0 <= result.score <= 1.0

    def test_result_metadata(self, paper_graph):
        result = baseline_simrank(paper_graph, "v1", "v2", iterations=3)
        assert result.method == "baseline"
        assert len(result.meeting_probabilities) == 4


class TestSampling:
    def test_required_sample_size(self):
        assert required_sample_size(0.1, 0.05) == int(np.ceil(3 / 0.01 * np.log(40)))
        with pytest.raises(InvalidParameterError):
            required_sample_size(0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            required_sample_size(0.1, 1.5)

    def test_sample_walk_starts_at_source(self, paper_graph, rng):
        walk = sample_walk(paper_graph, "v1", 5, rng)
        assert walk[0] == "v1"
        assert len(walk) <= 6

    def test_sample_walk_follows_arcs(self, paper_graph, rng):
        for _ in range(50):
            walk = sample_walk(paper_graph, "v2", 4, rng)
            for i in range(len(walk) - 1):
                assert paper_graph.has_arc(walk[i], walk[i + 1])

    def test_sample_walk_certain_graph_never_truncates(self, certain_graph, rng):
        for _ in range(20):
            assert len(sample_walk(certain_graph, "a", 6, rng)) == 7

    def test_sample_walk_dead_end(self, rng):
        graph = UncertainGraph()
        graph.add_arc("a", "b", 1.0)
        walk = sample_walk(graph, "a", 5, rng)
        assert walk == ["a", "b"]

    def test_sample_walk_invalid_inputs(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            sample_walk(paper_graph, "nope", 3)
        with pytest.raises(InvalidParameterError):
            sample_walk(paper_graph, "v1", -1)

    def test_sample_walks_count(self, paper_graph, rng):
        walks = sample_walks(paper_graph, "v1", 3, 25, rng)
        assert len(walks) == 25
        with pytest.raises(InvalidParameterError):
            sample_walks(paper_graph, "v1", 3, -1)

    def test_estimate_meeting_probabilities_identical_walks(self):
        walks = [["u", "a", "b"]] * 10
        meeting = estimate_meeting_probabilities(walks, walks, 2, "u", "u")
        assert meeting == pytest.approx([1.0, 1.0, 1.0])

    def test_estimate_meeting_probabilities_validation(self):
        with pytest.raises(InvalidParameterError):
            estimate_meeting_probabilities([["u"]], [], 1, "u", "v")
        with pytest.raises(InvalidParameterError):
            estimate_meeting_probabilities([], [], 1, "u", "v")

    def test_converges_to_baseline(self, paper_graph):
        exact = baseline_simrank(paper_graph, "v1", "v2", decay=0.6, iterations=4).score
        estimate = compute_simrank(
            paper_graph, "v1", "v2", method="sampling", decay=0.6, iterations=4,
            num_walks=6000, seed=7,
        ).score
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_reproducible_with_seed(self, paper_graph):
        first = compute_simrank(paper_graph, "v1", "v2", method="sampling", num_walks=200, seed=3)
        second = compute_simrank(paper_graph, "v1", "v2", method="sampling", num_walks=200, seed=3)
        assert first.score == second.score

    def test_invalid_num_walks(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            compute_simrank(paper_graph, "v1", "v2", method="sampling", num_walks=0)
        engine = SimRankEngine(paper_graph, seed=1)
        with pytest.raises(InvalidParameterError):
            engine.similarity("v1", "v2", method="sampling", num_walks=0)

    def test_unknown_vertex_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            compute_simrank(paper_graph, "v1", "nope", method="sampling")


class TestSpeedup:
    def test_filter_vectors_partition_choices(self, paper_graph):
        """For every vertex and sample index at most one out-arc is chosen."""
        filters = FilterVectors(paper_graph, 64, rng=1)
        for vertex in paper_graph.vertices():
            neighbors = paper_graph.out_neighbors(vertex)
            if not neighbors:
                continue
            union_count = 0
            for i in range(64):
                chosen = sum(filters.get(vertex, w).get(i) for w in neighbors)
                assert chosen <= 1
                union_count += chosen
            # With reasonably high arc probabilities most samples choose something.
            assert union_count > 0

    def test_filter_vectors_num_processes(self, paper_graph):
        filters = FilterVectors(paper_graph, 32, rng=2)
        assert filters.num_processes == 32
        assert len(filters) > 0
        with pytest.raises(InvalidParameterError):
            FilterVectors(paper_graph, 0)

    def test_missing_arc_filter_is_zero(self, paper_graph):
        filters = FilterVectors(paper_graph, 16, rng=3)
        assert filters.get("v1", "v5").is_zero()

    def test_propagation_starts_with_all_ones(self, paper_graph):
        filters = FilterVectors(paper_graph, 32, rng=4)
        tables = propagate_counting_tables(paper_graph, "v1", 3, filters)
        assert tables[0]["v1"].count() == 32
        assert len(tables) == 4

    def test_propagation_mass_conserved_or_lost(self, paper_graph):
        """At every step each sample index appears at most once across vertices."""
        filters = FilterVectors(paper_graph, 64, rng=5)
        tables = propagate_counting_tables(paper_graph, "v2", 4, filters)
        for table in tables:
            for i in range(64):
                present = sum(vector.get(i) for vector in table.values())
                assert present <= 1

    def test_propagation_invalid_inputs(self, paper_graph):
        filters = FilterVectors(paper_graph, 8, rng=6)
        with pytest.raises(InvalidParameterError):
            propagate_counting_tables(paper_graph, "nope", 2, filters)
        with pytest.raises(InvalidParameterError):
            propagate_counting_tables(paper_graph, "v1", -1, filters)

    def test_meeting_probabilities_close_to_exact(self, paper_graph):
        exact = baseline_meeting_probabilities(paper_graph, "v1", "v2", 4)
        estimated = compute_simrank(
            paper_graph, "v1", "v2", method="speedup", iterations=4,
            num_walks=6000, exact_prefix=0, seed=11,
        ).meeting_probabilities
        assert estimated[0] == exact[0]
        for exact_value, estimate in zip(exact[1:], estimated[1:]):
            assert estimate == pytest.approx(exact_value, abs=0.03)

    def test_meeting_probabilities_table_mismatch(self):
        with pytest.raises(InvalidParameterError):
            meeting_probabilities_from_tables([{}], [{}, {}], 4, "u", "v")

    def test_speedup_simrank_close_to_baseline(self, paper_graph):
        """The all-sampled SR-SP estimator (Fig. 5) is ``exact_prefix=0``."""
        exact = baseline_simrank(paper_graph, "v1", "v2", iterations=4).score
        estimate = compute_simrank(
            paper_graph, "v1", "v2", method="speedup", iterations=4,
            num_walks=6000, exact_prefix=0, seed=13,
        ).score
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_shared_filters_mode_runs(self, paper_graph):
        """``shared_filters=True`` propagates both endpoints on one filter set."""
        engine = SimRankEngine(paper_graph, iterations=3, num_walks=500, seed=17)
        result = engine.similarity(
            "v1", "v2", method="speedup", exact_prefix=0, shared_filters=True
        )
        assert 0.0 <= result.score <= 1.0
        expected = meeting_probabilities_from_tables(
            propagate_counting_tables(paper_graph, "v1", 3, engine.filters),
            propagate_counting_tables(paper_graph, "v2", 3, engine.filters),
            500, "v1", "v2",
        )
        assert list(result.meeting_probabilities) == expected

    def test_prebuilt_filters_reused(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3, num_walks=300, seed=19)
        filters = FilterVectors(paper_graph, 300, rng=19)
        result = engine.similarity(
            "v1", "v2", method="speedup", exact_prefix=0, filters=filters
        )
        assert result.details["num_walks"] == 300
        expected = meeting_probabilities_from_tables(
            propagate_counting_tables(paper_graph, "v1", 3, filters),
            propagate_counting_tables(paper_graph, "v2", 3, engine.filters_v),
            300, "v1", "v2",
        )
        assert list(result.meeting_probabilities) == expected


class TestTwoPhase:
    def test_exact_prefix_matches_baseline(self, paper_graph):
        exact = baseline_meeting_probabilities(paper_graph, "v1", "v2", 2)
        meeting = compute_simrank(
            paper_graph, "v1", "v2", method="two_phase", iterations=5,
            exact_prefix=2, num_walks=50, seed=1,
        ).meeting_probabilities
        assert meeting[:3] == pytest.approx(exact)
        assert len(meeting) == 6

    def test_full_exact_prefix_equals_baseline(self, paper_graph):
        result = compute_simrank(
            paper_graph, "v1", "v2", method="two_phase", iterations=4,
            exact_prefix=4, num_walks=10, seed=2,
        )
        baseline = baseline_simrank(paper_graph, "v1", "v2", iterations=4)
        assert result.score == pytest.approx(baseline.score, abs=1e-12)

    def test_invalid_prefix_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            compute_simrank(
                paper_graph, "v1", "v2", method="two_phase", iterations=3, exact_prefix=4
            )
        engine = SimRankEngine(paper_graph, iterations=3, seed=1)
        with pytest.raises(InvalidParameterError):
            engine.similarity("v1", "v2", method="two_phase", exact_prefix=4)

    def test_close_to_baseline_with_sampling_tail(self, paper_graph):
        exact = baseline_simrank(paper_graph, "v1", "v2", iterations=4).score
        estimate = compute_simrank(
            paper_graph, "v1", "v2", method="two_phase", iterations=4,
            exact_prefix=1, num_walks=4000, seed=5,
        ).score
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_speedup_tail(self, paper_graph):
        exact = baseline_simrank(paper_graph, "v1", "v2", iterations=4).score
        estimate = compute_simrank(
            paper_graph, "v1", "v2", method="speedup", iterations=4,
            exact_prefix=1, num_walks=4000, seed=7,
        ).score
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_method_label(self, paper_graph):
        ts = compute_simrank(paper_graph, "v1", "v2", method="two_phase", num_walks=50, seed=1)
        sp = compute_simrank(paper_graph, "v1", "v2", method="speedup", num_walks=50, seed=1)
        assert ts.method == "two_phase" and ts.details["use_speedup"] is False
        assert sp.method == "speedup" and sp.details["use_speedup"] is True

    def test_unknown_vertex_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            compute_simrank(paper_graph, "v1", "nope", method="two_phase")

    def test_two_phase_error_smaller_than_sampling_on_average(self, paper_graph):
        """Averaged over repetitions, SR-TS (l=2) should beat plain Sampling —
        the headline accuracy claim of the paper."""
        exact = baseline_simrank(paper_graph, "v2", "v4", iterations=4).score
        rng = np.random.default_rng(23)
        sampling_errors, two_phase_errors = [], []
        for _ in range(12):
            engine = SimRankEngine(paper_graph, iterations=4, num_walks=300, seed=rng)
            sampling_errors.append(
                abs(engine.similarity("v2", "v4", method="sampling").score - exact)
            )
            two_phase_errors.append(
                abs(
                    engine.similarity("v2", "v4", method="two_phase", exact_prefix=2).score
                    - exact
                )
            )
        assert np.mean(two_phase_errors) < np.mean(sampling_errors)


class TestTwoPhaseEdgeCases:
    def test_zero_exact_prefix_is_pure_sampling(self, paper_graph):
        """l = 0 must work: only m(0) is exact, everything else is sampled."""
        result = compute_simrank(
            paper_graph, "v1", "v2", method="two_phase", iterations=3,
            exact_prefix=0, num_walks=200, seed=3,
        )
        assert 0.0 <= result.score <= 1.0
        assert result.meeting_probabilities[0] == 0.0

    def test_prebuilt_filters_for_both_endpoints(self, paper_graph):
        """Passing two offline filter sets keeps the endpoint bundles independent."""
        filters_u = FilterVectors(paper_graph, 400, rng=21)
        filters_v = FilterVectors(paper_graph, 400, rng=22)
        result = compute_simrank(
            paper_graph, "v1", "v2", method="speedup", iterations=3,
            exact_prefix=1, num_walks=400, seed=23,
            filters=filters_u, filters_v=filters_v,
        )
        assert 0.0 <= result.score <= 1.0

    def test_mismatched_filter_widths_rejected(self, paper_graph):
        filters_u = FilterVectors(paper_graph, 64, rng=1)
        filters_v = FilterVectors(paper_graph, 32, rng=2)
        with pytest.raises(InvalidParameterError):
            compute_simrank(
                paper_graph, "v1", "v2", method="speedup", iterations=2, seed=1,
                filters=filters_u, filters_v=filters_v,
            )

    def test_baseline_meeting_probabilities_zero_steps(self, paper_graph):
        from repro.core.baseline import baseline_meeting_probabilities

        assert baseline_meeting_probabilities(paper_graph, "v1", "v1", 0) == [1.0]
        assert baseline_meeting_probabilities(paper_graph, "v1", "v2", 0) == [0.0]
        with pytest.raises(InvalidParameterError):
            baseline_meeting_probabilities(paper_graph, "v1", "v2", -1)
