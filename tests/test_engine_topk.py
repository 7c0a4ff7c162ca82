"""Tests for the SimRankEngine front end and the top-k query helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import baseline_simrank
from repro.core.engine import METHODS, SimRankEngine, compute_simrank
from repro.core.sampling import estimate_meeting_probabilities, sample_walks
from repro.core.simrank import simrank_from_meeting_probabilities
from repro.core.topk import top_k_similar_pairs, top_k_similar_to
from repro.utils.errors import InvalidParameterError
from tests.speedup_oracle import filter_vector


class TestEngine:
    def test_all_methods_produce_scores(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=400, seed=3)
        for method in METHODS:
            result = engine.similarity("v1", "v2", method=method)
            assert 0.0 <= result.score <= 1.0

    def test_unknown_method_rejected(self, paper_graph):
        engine = SimRankEngine(paper_graph)
        with pytest.raises(InvalidParameterError):
            engine.similarity("v1", "v2", method="magic")

    def test_invalid_construction(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            SimRankEngine(paper_graph, decay=1.5)
        with pytest.raises(InvalidParameterError):
            SimRankEngine(paper_graph, iterations=0)
        with pytest.raises(InvalidParameterError):
            SimRankEngine(paper_graph, num_walks=0)
        with pytest.raises(InvalidParameterError):
            SimRankEngine(paper_graph, exact_prefix=9, iterations=3)

    def test_baseline_matches_direct_call(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=4)
        direct = baseline_simrank(paper_graph, "v1", "v2", iterations=4).score
        assert engine.similarity("v1", "v2", method="baseline").score == pytest.approx(direct)

    def test_filters_are_cached_and_rebuildable(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=100, seed=5)
        first = engine.filters
        assert engine.filters is first
        rebuilt = engine.rebuild_filters()
        assert rebuilt is not first
        assert engine.filters is rebuilt

    def test_filters_track_num_walks(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=64, seed=5)
        assert engine.filters.num_processes == 64
        engine.num_walks = 128
        assert engine.filters.num_processes == 128

    def test_filters_invalidated_by_graph_mutation(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=64, seed=5)
        before = engine.filters
        before_v = engine.filters_v
        paper_graph.add_arc("v5", "v1", 0.4)
        assert engine.filters is not before
        assert engine.filters_v is not before_v
        assert not filter_vector(engine.filters, "v5", "v1").is_zero()

    def test_filters_invalidated_by_graph_reassignment(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=64, seed=5)
        before = engine.filters
        engine.graph = paper_graph.copy()
        after = engine.filters
        assert after is not before
        assert after.graph is engine.graph

    def test_backend_validation(self, paper_graph):
        """There is one estimator path: ``backend=`` is no longer an option."""
        engine = SimRankEngine(paper_graph, num_walks=50, seed=1)
        for method in METHODS:
            with pytest.raises(InvalidParameterError, match="backend"):
                engine.similarity("v1", "v2", method=method, backend="vectorized")
        with pytest.raises(InvalidParameterError, match="backend"):
            compute_simrank(paper_graph, "v1", "v2", method="sampling", backend="python")
        with pytest.raises(TypeError):
            SimRankEngine(paper_graph, backend="vectorized")

    def test_backends_statistically_consistent(self, paper_graph):
        """The engine's keyed sampler and the scalar oracle agree with the
        exact score."""
        exact = baseline_simrank(paper_graph, "v1", "v2", iterations=4).score
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=5000, seed=2)
        assert engine.similarity("v1", "v2", method="sampling").score == pytest.approx(
            exact, abs=0.025
        )
        generator = np.random.default_rng(2)
        oracle = estimate_meeting_probabilities(
            sample_walks(paper_graph, "v1", 4, 5000, generator),
            sample_walks(paper_graph, "v2", 4, 5000, generator),
            4, "v1", "v2",
        )
        assert simrank_from_meeting_probabilities(oracle, 0.6) == pytest.approx(
            exact, abs=0.025
        )

    def test_similarity_many(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=100, seed=7)
        results = engine.similarity_many([("v1", "v2"), ("v2", "v3")], method="sampling")
        assert len(results) == 2
        assert {(r.u, r.v) for r in results} == {("v1", "v2"), ("v2", "v3")}

    def test_similarity_many_shares_walk_bundles(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=6000, seed=7)
        pairs = [("v1", "v2"), ("v1", "v3"), ("v2", "v3")]
        results = engine.similarity_many(pairs, method="sampling")
        assert all(r.details.get("shared_bundles") for r in results)
        for result in results:
            exact = baseline_simrank(paper_graph, result.u, result.v, iterations=4).score
            assert result.score == pytest.approx(exact, abs=0.025)

    def test_similarity_many_rejects_unknown_vertices(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=50, seed=7)
        with pytest.raises(InvalidParameterError):
            engine.similarity_many([("v1", "nope"), ("v1", "v2")], method="sampling")

    def test_similarity_matrix(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        matrix = engine.similarity_matrix(order=paper_graph.vertices())
        assert matrix.shape == (5, 5)

    def test_method_overrides_forwarded(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=100, seed=9)
        result = engine.similarity("v1", "v2", method="two_phase", exact_prefix=2)
        assert result.details["exact_prefix"] == 2

    def test_compute_simrank_convenience(self, paper_graph):
        result = compute_simrank(paper_graph, "v1", "v2", method="sampling", num_walks=200, seed=1)
        assert result.method == "sampling"
        assert 0.0 <= result.score <= 1.0


class TestTopK:
    def test_pairs_match_exhaustive_ranking(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        top = top_k_similar_pairs(engine, k=3, method="baseline")
        assert len(top) == 3
        # Compare with a brute-force ranking over all pairs.
        from itertools import combinations

        scores = {
            (u, v): engine.similarity(u, v, method="baseline").score
            for u, v in combinations(paper_graph.vertices(), 2)
        }
        best = sorted(scores.items(), key=lambda item: item[1], reverse=True)[:3]
        assert [score for _, _, score in top] == pytest.approx([s for _, s in best])

    def test_pairs_sorted_descending(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        top = top_k_similar_pairs(engine, k=5, method="baseline")
        scores = [score for _, _, score in top]
        assert scores == sorted(scores, reverse=True)

    def test_pairs_candidate_restriction(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        candidates = [("v1", "v2"), ("v3", "v4")]
        top = top_k_similar_pairs(engine, k=2, candidate_pairs=candidates, method="baseline")
        assert {(u, v) for u, v, _ in top} <= set(candidates)

    def test_pairs_invalid_k(self, paper_graph):
        engine = SimRankEngine(paper_graph)
        with pytest.raises(InvalidParameterError):
            top_k_similar_pairs(engine, k=0)

    def test_similar_to_matches_exhaustive_ranking(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        top = top_k_similar_to(engine, "v1", k=2, method="baseline")
        scores = {
            v: engine.similarity("v1", v, method="baseline").score
            for v in paper_graph.vertices()
            if v != "v1"
        }
        best = sorted(scores.items(), key=lambda item: item[1], reverse=True)[:2]
        assert [score for _, score in top] == pytest.approx([s for _, s in best])

    def test_similar_to_excludes_query(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        top = top_k_similar_to(engine, "v1", k=4, method="baseline")
        assert all(vertex != "v1" for vertex, _ in top)

    def test_similar_to_candidates(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        top = top_k_similar_to(engine, "v1", k=2, candidates=["v2", "v3", "v1"], method="baseline")
        assert {vertex for vertex, _ in top} <= {"v2", "v3"}

    def test_similar_to_invalid_inputs(self, paper_graph):
        engine = SimRankEngine(paper_graph)
        with pytest.raises(InvalidParameterError):
            top_k_similar_to(engine, "v1", k=0)
        with pytest.raises(InvalidParameterError):
            top_k_similar_to(engine, "nope", k=2)


class TestTopKDeterminism:
    def test_ties_broken_by_candidate_order(self, paper_graph):
        """Exactly tied scores keep the candidate submission order."""
        engine = SimRankEngine(paper_graph, iterations=3)
        # The same pair listed twice ties with itself exactly; the earlier
        # occurrence must rank first, and repeated runs must agree.
        candidates = [("v3", "v4"), ("v1", "v2"), ("v3", "v4")]
        top = top_k_similar_pairs(engine, k=3, candidate_pairs=candidates, method="baseline")
        tied = [(u, v) for u, v, _ in top if (u, v) == ("v3", "v4")]
        assert len(tied) == 2
        assert top == top_k_similar_pairs(
            engine, k=3, candidate_pairs=candidates, method="baseline"
        )

    def test_similar_to_ties_keep_candidate_order(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        top = top_k_similar_to(
            engine, "v1", k=3, candidates=["v3", "v2", "v3"], method="baseline"
        )
        scores = {v: s for v, s in top}
        # Duplicated candidate produces an exact tie; order must be stable.
        positions = [i for i, (v, _) in enumerate(top) if v == "v3"]
        assert len(positions) == 2
        assert positions == sorted(positions)
        assert scores["v3"] == pytest.approx(
            engine.similarity("v1", "v3", method="baseline").score
        )

    def test_k_larger_than_candidate_set(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        pairs = [("v1", "v2"), ("v2", "v3")]
        top = top_k_similar_pairs(engine, k=10, candidate_pairs=pairs, method="baseline")
        assert len(top) == 2
        vertices = top_k_similar_to(engine, "v1", k=99, method="baseline")
        assert len(vertices) == 4  # every other vertex, ranked

    def test_candidate_pairs_with_unknown_vertices_rejected(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3)
        with pytest.raises(InvalidParameterError):
            top_k_similar_pairs(
                engine, k=2, candidate_pairs=[("v1", "v2"), ("v1", "ghost")]
            )
        with pytest.raises(InvalidParameterError):
            top_k_similar_to(engine, "v1", k=2, candidates=["v2", "ghost"])

    def test_sampling_top_k_shares_walk_bundles(self, paper_graph):
        """Satellite: top-k routes through similarity_many, so the candidate
        set costs one bundle per unique endpoint, not two per pair."""
        from repro.service import WalkBundleStore

        store = WalkBundleStore()
        engine = SimRankEngine(paper_graph, num_walks=100, seed=7, bundle_store=store)
        top = top_k_similar_to(engine, "v1", k=3, method="sampling")
        assert len(top) == 3
        # 4 candidates + the query vertex = 5 unique endpoints = 5 bundles.
        assert len(store) == 5


class TestTopKIndexThroughHelpers:
    """The use_index= path of the helpers on the paper graph (the deep
    bound/prune properties live in tests/test_topk_index.py)."""

    @pytest.mark.parametrize("method", METHODS)
    def test_use_index_matches_scan_every_method(self, paper_graph, method):
        engine = SimRankEngine(paper_graph, num_walks=200, seed=11)
        scan = top_k_similar_to(engine, "v1", k=3, method=method)
        pruned = top_k_similar_to(engine, "v1", k=3, method=method, use_index=True)
        assert pruned == scan

    def test_use_index_matches_scan_for_pairs(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=200, seed=11)
        scan = top_k_similar_pairs(engine, k=3, method="sampling")
        pruned = top_k_similar_pairs(engine, k=3, method="sampling", use_index=True)
        assert pruned == scan

    def test_use_index_ties_keep_candidate_order(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=150, seed=4)
        candidates = ["v3", "v2", "v3", "v4"]  # duplicate = exact tie
        scan = top_k_similar_to(
            engine, "v1", k=4, candidates=candidates, method="sampling"
        )
        pruned = top_k_similar_to(
            engine, "v1", k=4, candidates=candidates, method="sampling", use_index=True
        )
        assert pruned == scan

    def test_use_index_keeps_hoisted_validation(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=100, seed=4)
        with pytest.raises(InvalidParameterError):
            top_k_similar_to(engine, "v1", k=2, candidates=["ghost"], use_index=True)
        with pytest.raises(InvalidParameterError):
            top_k_similar_pairs(
                engine, k=2, candidate_pairs=[("v1", "ghost")], use_index=True
            )

    def test_index_artifacts_cached_on_engine(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=100, seed=4)
        top_k_similar_to(engine, "v1", k=2, method="sampling", use_index=True)
        store = engine.caches.topk_indexes
        assert len(store) > 0
        hits = store.stats.hits
        top_k_similar_to(engine, "v2", k=2, method="sampling", use_index=True)
        assert store.stats.hits > hits
