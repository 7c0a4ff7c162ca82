"""Tests for k-step transition probabilities (TransPr) and the W(k) != W(1)^k claim."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transition import (
    WalkExplosionError,
    exact_transition_matrices_by_enumeration,
    expected_one_step_matrix,
    single_source_transition_probabilities,
    transition_probability_matrices,
    verify_not_matrix_power,
)
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError
from tests.conftest import small_random_uncertain_graph


class TestExpectedOneStepMatrix:
    def test_entries(self, paper_graph):
        order = paper_graph.vertices()
        index = {v: i for i, v in enumerate(order)}
        matrix = expected_one_step_matrix(paper_graph, order)
        # v1 has a single out-arc with probability 0.8.
        assert matrix[index["v1"], index["v3"]] == pytest.approx(0.8)
        # v3 -> v4: 0.6 * (0.5/2 + 0.5) = 0.45 (see alpha test).
        assert matrix[index["v3"], index["v4"]] == pytest.approx(0.45)
        # Absent arcs have probability zero.
        assert matrix[index["v1"], index["v5"]] == 0.0

    def test_row_sums_at_most_one(self, paper_graph):
        matrix = expected_one_step_matrix(paper_graph)
        assert (matrix.sum(axis=1) <= 1.0 + 1e-12).all()

    def test_row_sum_is_probability_some_arc_exists(self):
        graph = UncertainGraph()
        graph.add_arc("u", "a", 0.5)
        graph.add_arc("u", "b", 0.4)
        matrix = expected_one_step_matrix(graph, order=["u", "a", "b"])
        assert matrix[0].sum() == pytest.approx(1 - 0.5 * 0.6)

    def test_probability_one_graph_is_row_normalised_adjacency(self, certain_graph):
        order = certain_graph.vertices()
        expected = certain_graph.to_deterministic().transition_matrix(order)
        assert np.allclose(expected_one_step_matrix(certain_graph, order), expected)


class TestSingleSource:
    def test_step_zero_is_point_mass(self, paper_graph):
        distributions = single_source_transition_probabilities(paper_graph, "v1", 3)
        assert distributions[0] == {"v1": 1.0}

    def test_matches_oracle(self, paper_graph):
        order = paper_graph.vertices()
        index = {v: i for i, v in enumerate(order)}
        oracle = exact_transition_matrices_by_enumeration(paper_graph, 4, order)
        for source in order:
            distributions = single_source_transition_probabilities(paper_graph, source, 4)
            for k in range(5):
                row = np.zeros(len(order))
                for target, probability in distributions[k].items():
                    row[index[target]] = probability
                assert np.allclose(row, oracle[k][index[source]], atol=1e-10)

    def test_matches_oracle_on_triangle(self, triangle_graph):
        order = triangle_graph.vertices()
        index = {v: i for i, v in enumerate(order)}
        oracle = exact_transition_matrices_by_enumeration(triangle_graph, 5, order)
        distributions = single_source_transition_probabilities(triangle_graph, "a", 5)
        for k in range(6):
            row = np.zeros(len(order))
            for target, probability in distributions[k].items():
                row[index[target]] = probability
            assert np.allclose(row, oracle[k][index["a"]], atol=1e-10)

    def test_mass_never_exceeds_one(self, paper_graph):
        distributions = single_source_transition_probabilities(paper_graph, "v2", 5)
        for distribution in distributions:
            assert sum(distribution.values()) <= 1.0 + 1e-9

    def test_dead_end_truncates(self, chain_graph):
        distributions = single_source_transition_probabilities(chain_graph, "a", 6)
        assert len(distributions) == 7
        # After three steps the walk must have stopped at the dead end "d".
        assert distributions[4] == {}
        assert distributions[6] == {}

    def test_unknown_source_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            single_source_transition_probabilities(paper_graph, "nope", 2)

    def test_negative_steps_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            single_source_transition_probabilities(paper_graph, "v1", -1)

    def test_state_budget_enforced(self):
        graph = small_random_uncertain_graph(12, 0.8, seed=3)
        with pytest.raises(WalkExplosionError):
            single_source_transition_probabilities(graph, 0, 6, max_states=50)

    def test_state_budget_checked_inside_the_level(self):
        """The raise comes at the first state past the budget, not after
        the whole level has been built."""
        graph = small_random_uncertain_graph(12, 0.8, seed=3)
        with pytest.raises(WalkExplosionError, match=r"produced 51 states \(budget 50\)"):
            single_source_transition_probabilities(graph, 0, 6, max_states=50)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_oracle_on_random_graphs(self, seed):
        graph = small_random_uncertain_graph(4, 0.5, seed=seed)
        if graph.num_arcs == 0 or graph.num_arcs > 12:
            return
        order = graph.vertices()
        index = {v: i for i, v in enumerate(order)}
        oracle = exact_transition_matrices_by_enumeration(graph, 3, order)
        source = order[0]
        distributions = single_source_transition_probabilities(graph, source, 3)
        for k in range(4):
            row = np.zeros(len(order))
            for target, probability in distributions[k].items():
                row[index[target]] = probability
            assert np.allclose(row, oracle[k][index[source]], atol=1e-10)


class TestAllPairsMatrices:
    def test_matches_oracle(self, paper_graph):
        order = paper_graph.vertices()
        ours = transition_probability_matrices(paper_graph, 3, order)
        oracle = exact_transition_matrices_by_enumeration(paper_graph, 3, order)
        for k in range(4):
            assert np.allclose(ours[k], oracle[k], atol=1e-10)

    def test_step_zero_is_identity(self, paper_graph):
        matrices = transition_probability_matrices(paper_graph, 2)
        assert np.allclose(matrices[0], np.eye(paper_graph.num_vertices))

    def test_w1_equals_expected_one_step(self, paper_graph):
        order = paper_graph.vertices()
        matrices = transition_probability_matrices(paper_graph, 1, order)
        assert np.allclose(matrices[1], expected_one_step_matrix(paper_graph, order))

    def test_oracle_negative_steps_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            exact_transition_matrices_by_enumeration(paper_graph, -1)


class TestNotMatrixPower:
    def test_paper_graph_differs(self, paper_graph):
        differs, gap = verify_not_matrix_power(paper_graph, steps=3)
        assert differs
        assert gap > 0.01

    def test_triangle_differs_at_two_steps(self, triangle_graph):
        differs, _ = verify_not_matrix_power(triangle_graph, steps=2)
        assert differs

    def test_acyclic_graph_does_not_differ(self, chain_graph):
        differs, gap = verify_not_matrix_power(chain_graph, steps=3)
        assert not differs
        assert gap < 1e-12

    def test_probability_one_graph_does_not_differ(self, certain_graph):
        """With a single possible world, W(k) really is W(1)^k."""
        differs, gap = verify_not_matrix_power(certain_graph, steps=3)
        assert not differs
        assert gap < 1e-9

    def test_short_walks_cannot_deviate(self, paper_graph):
        """The deviation requires a walk that *leaves* some vertex twice.

        The example graph has girth 2 and no self-loop, so the shortest such
        walk has length 3: ``W(2)`` still equals ``W(1)^2`` while ``W(3)``
        does not.
        """
        from repro.graph.cycles import shortest_cycle_length

        assert shortest_cycle_length(paper_graph) == 2
        differs_two, gap_two = verify_not_matrix_power(paper_graph, steps=2)
        differs_three, _ = verify_not_matrix_power(paper_graph, steps=3)
        assert not differs_two
        assert gap_two < 1e-12
        assert differs_three
