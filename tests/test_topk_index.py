"""Tests for the epoch-scoped walk-fingerprint top-k index.

The load-bearing properties, in order: (1) every bound really is an upper
bound on the exact score its method computes, (2) index-pruned rankings are
bit-identical to the chunked scan — same vertices, same scores, same tie
order — across methods, graphs and adversarial tie cases, (3) walk-sink
candidates are certified exact zeros and only the k earliest of them are
rescored, (4) the store honours its byte budget and the cache layers behave
(LRU, over-budget refusal, fallback to the scan).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import kernels
from repro.core.batch_walks import NO_VERTEX, meeting_probabilities_from_matrices
from repro.core.bundle_store import WalkBundleStore
from repro.core.engine import SimRankEngine
from repro.core.executors import (
    TRANSITION_STATE_BYTES,
    EngineCaches,
    TransitionCache,
    executor_for,
)
import repro.core.topk as topk_module
import repro.core.topk_index as topk_index_module
from repro.core.topk import top_k_similar_pairs, top_k_similar_to
from repro.core.topk_index import (
    BOUND_SLACK,
    TopKIndexStore,
    WalkLanes,
    one_step_arc_probabilities,
    pruned_top_k_pairs,
    pruned_top_k_vertex,
    sink_mask,
    snapshot_index,
    step_weights,
    survival_masses,
)
from repro.core.walks import AlphaCache, alpha
from repro.graph.csr import CSRGraph, CSRGraphView
from repro.graph.generators import rmat_uncertain
from repro.graph.uncertain_graph import UncertainGraph
from repro.service import MutationLog, SimilarityService
from repro.utils.errors import InvalidParameterError

METHODS = ("baseline", "sampling", "two_phase", "speedup")


def _random_graph(seed: int, num_vertices: int = 40, num_edges: int = 140):
    return rmat_uncertain(num_vertices, num_edges, rng=np.random.default_rng(seed))


class TestStepWeights:
    def test_weights_sum_to_decay(self):
        """Σ_{k=1}^{n} w_k = c — the identity every tail constant relies on."""
        for decay in (0.4, 0.6, 0.8):
            for iterations in (1, 3, 5):
                weights = step_weights(decay, iterations)
                assert weights.shape == (iterations,)
                assert weights.sum() == pytest.approx(decay)
                assert (weights > 0).all()

    def test_tail_weight_is_decay_power(self):
        """Σ_{k=l+1}^{n} w_k = c^{l+1} — the speedup tail constant."""
        weights = step_weights(0.6, 5)
        for prefix in range(5):
            assert weights[prefix:].sum() == pytest.approx(0.6 ** (prefix + 1))


class TestSurvivalMasses:
    def test_matches_brute_force(self):
        graph = _random_graph(3)
        from repro.graph.csr import CSRGraph

        frozen = CSRGraph.from_uncertain(graph)
        survival = survival_masses(frozen)
        for position in range(frozen.num_vertices):
            vertex = frozen.vertex_at(position)
            miss = 1.0
            for probability in graph.out_arcs(vertex).values():
                miss *= 1.0 - min(probability, 1.0)
            assert survival[position] >= (1.0 - miss) - 1e-12
            assert survival[position] == pytest.approx(1.0 - miss, abs=1e-6)

    def test_certain_arc_row_is_one_and_sink_is_zero(self):
        from repro.graph.csr import CSRGraph
        from repro.graph.uncertain_graph import UncertainGraph

        graph = UncertainGraph(vertices=("sink",))
        graph.add_arc("a", "b", 1.0)
        graph.add_arc("a", "c", 0.5)
        frozen = CSRGraph.from_uncertain(graph)
        survival = survival_masses(frozen)
        assert survival[frozen.index_of("a")] == 1.0
        assert survival[frozen.index_of("sink")] == pytest.approx(0.0, abs=1e-8)
        assert (survival <= 1.0).all()


class TestLanes:
    """Exact lanes: per step, the matched-lane count IS the estimator's hit
    count over the same bundles (int16 bundles and int32 past the bound)."""

    def _bundles(self, seed: int, dtype, bundles=5, walks=20, length=4):
        rng = np.random.default_rng(seed)
        # Vertex ids near the dtype's top exercise the full index range.
        top = int(np.iinfo(dtype).max)
        vertices = np.asarray([0, 1, 2, top - 2, top - 1, top])
        matrices = vertices[rng.integers(0, 6, size=(bundles, walks, length + 1))]
        dead_from = rng.integers(1, length + 2, size=(bundles, walks))
        # A walk that dies stays dead, as the sampler leaves it.
        matrices[np.arange(length + 1) >= dead_from[:, :, None]] = NO_VERTEX
        return matrices.astype(dtype)

    @staticmethod
    def _lanes(matrices: np.ndarray) -> WalkLanes:
        return WalkLanes(
            np.ascontiguousarray(matrices[:, :, 1:].transpose(0, 2, 1)),
            matrices.shape[1],
        )

    @pytest.mark.parametrize("dtype", (np.int16, np.int32))
    def test_counts_equal_meeting_hits(self, dtype):
        matrices = self._bundles(11, dtype)
        bundles, walks, columns = matrices.shape
        lanes = self._lanes(matrices)
        for u in range(bundles):
            counts = lanes.matched_counts(u, np.arange(bundles))
            for v in range(bundles):
                hits = meeting_probabilities_from_matrices(
                    matrices[u], matrices[v], columns - 1, False
                )[1:]
                assert counts[v].tolist() == [round(h * walks) for h in hits]
                assert (counts[v] / walks).tolist() == hits

    def test_identical_bundles_match_everywhere_alive(self):
        matrices = self._bundles(4, np.int16, bundles=1)
        matrices = np.concatenate([matrices, matrices])
        counts = self._lanes(matrices).matched_counts(0, np.asarray([1]))[0]
        for step in range(1, matrices.shape[2]):
            assert counts[step - 1] == (matrices[0, :, step] != NO_VERTEX).sum()

    @pytest.mark.parametrize("dtype", (np.int16, np.int32))
    def test_pair_counts_equal_meeting_hits(self, dtype):
        matrices = self._bundles(9, dtype)
        walks, columns = matrices.shape[1:]
        lanes = self._lanes(matrices)
        u = np.asarray([0, 1, 2, 3])
        v = np.asarray([3, 4, 0, 3])
        pairwise = lanes.matched_counts_pairs(u, v)
        for row, (left, right) in enumerate(zip(u, v)):
            single = lanes.matched_counts(int(left), np.asarray([int(right)]))[0]
            assert (pairwise[row] == single).all()
            hits = meeting_probabilities_from_matrices(
                matrices[left], matrices[right], columns - 1, False
            )[1:]
            assert (pairwise[row] / walks).tolist() == hits


def _zoo(seed: int):
    """A seeded one-step zoo: p = 1 arcs, self-loops, sinks, a hub row of
    degree 40 and — zeroed on the frozen CSR, since a graph refuses them —
    p = 0 arcs (one row of nothing but p = 0 arcs is a sink too)."""
    rng = np.random.default_rng(seed)

    def draw() -> float:
        return 1.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 1.0))

    names = [f"z{i}" for i in range(30)]
    graph = UncertainGraph(vertices=("sink-a", "sink-b"))
    for u in names:
        for v in rng.choice(names, size=int(rng.integers(1, 7)), replace=False):
            graph.add_arc(u, str(v), draw())
    for u in names[:6]:
        graph.add_arc(u, u, draw())
    for v in names + ["sink-a", "sink-b", "hub"] + [f"leaf{i}" for i in range(7)]:
        graph.add_arc("hub", v, draw())
    frozen = CSRGraph.from_uncertain(graph)
    probs = frozen.probs.copy()
    probs[rng.random(len(probs)) < 0.15] = 0.0
    row = frozen.index_of("z29")
    probs[frozen.indptr[row] : frozen.indptr[row + 1]] = 0.0
    zeroed = CSRGraph(frozen.indptr, frozen.indices, probs, frozen.vertices)
    assert np.diff(zeroed.indptr).max() == 40
    return graph, zeroed


class TestOneStepTable:
    """The vectorized leave-one-out DP equals Eq. 11's α(u, {w}, 1) bit for
    bit, so it may fill the α cache the exact prefix reads."""

    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("block_floats", (None, 64))
    def test_matches_alpha_on_the_zoo(self, seed, block_floats, monkeypatch):
        _, frozen = _zoo(seed)
        if block_floats is not None:
            # At 64 floats the degree-40 hub row spans 40 blocks of one arc.
            monkeypatch.setattr(
                topk_index_module, "ONE_STEP_BLOCK_FLOATS", block_floats
            )
        view = CSRGraphView(frozen)
        cache = AlphaCache(view)
        table = one_step_arc_probabilities(frozen, cache)
        expected = np.zeros(frozen.num_arcs)
        for position in range(frozen.num_vertices):
            source = frozen.vertex_at(position)
            for arc in range(frozen.indptr[position], frozen.indptr[position + 1]):
                target = frozen.vertex_at(int(frozen.indices[arc]))
                expected[arc] = alpha(view, source, {target}, 1)
                assert cache.value(source, frozenset((target,)), 1) == expected[arc]
        assert np.array_equal(table, expected)
        assert (table[frozen.probs == 0.0] == 0.0).all()
        assert len(cache) == frozen.num_arcs

    def test_filled_alpha_cache_keeps_two_phase_scores(self):
        """Two-phase scores on a snapshot whose α cache the index filled
        equal those of a snapshot that computed every α itself."""
        graph, _ = _zoo(4)
        engine = SimRankEngine(graph, num_walks=60, seed=4)
        assert snapshot_index(engine.snapshot(), "two_phase") is not None
        assert len(engine.caches.alpha_cache) == engine.snapshot().csr.num_arcs
        reference = SimRankEngine(graph, num_walks=60, seed=4)
        vertices = graph.vertices()
        pairs = [(u, v) for u in vertices[:6] for v in vertices if u != v]
        scores = [
            result.score
            for result in engine.batch_executor("two_phase").run_batch(pairs, {})
        ]
        expected = [
            result.score
            for result in reference.batch_executor("two_phase").run_batch(pairs, {})
        ]
        assert scores == expected

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_two_phase_bounds_dominate_scores_on_the_zoo(self, seed):
        graph, frozen = _zoo(seed)
        engine = SimRankEngine(graph, num_walks=80, seed=seed)
        snapshot = engine.snapshot()
        for csr in (snapshot.csr, frozen):
            pinned = dataclasses.replace(
                snapshot,
                csr=csr,
                caches=EngineCaches(graph, ("zoo", id(csr)), seed, csr=csr),
            )
            index = snapshot_index(pinned, "two_phase")
            executor = executor_for("two_phase")(pinned)
            candidates = np.arange(csr.num_vertices)
            for query in ("hub", "z0", "z29", "sink-a"):
                query_index = csr.index_of(query)
                bounds = index.bounds_for_vertex(query_index, candidates)
                results = executor.run_batch(
                    [(query, csr.vertex_at(int(v))) for v in candidates], {}
                )
                scores = np.asarray([result.score for result in results])
                assert (scores <= bounds).all(), query


class TestBoundValidity:
    """Property: ub(u, v) >= exact score, for every method, on random graphs."""

    @pytest.mark.parametrize("seed", (1, 7))
    @pytest.mark.parametrize("method", METHODS)
    def test_vertex_bounds_dominate_scores(self, seed, method):
        graph = _random_graph(seed)
        engine = SimRankEngine(graph, num_walks=120, seed=seed)
        snapshot = engine.snapshot()
        index = snapshot_index(snapshot, method, num_walks=120)
        assert index is not None
        vertices = graph.vertices()
        query = vertices[0]
        candidates = vertices[1:]
        csr = snapshot.csr
        bounds = index.bounds_for_vertex(
            csr.index_of(query),
            np.asarray([csr.index_of(c) for c in candidates]),
        )
        executor = engine.batch_executor(method)
        overrides = {} if method == "baseline" else {"num_walks": 120}
        results = executor.run_batch(
            [(query, candidate) for candidate in candidates], overrides
        )
        for candidate, bound, result in zip(candidates, bounds, results):
            assert result.score <= bound, (method, query, candidate)

    @pytest.mark.parametrize("method", ("sampling", "two_phase"))
    def test_pair_bounds_dominate_scores(self, method):
        graph = _random_graph(5)
        engine = SimRankEngine(graph, num_walks=120, seed=5)
        snapshot = engine.snapshot()
        index = snapshot_index(snapshot, method, num_walks=120)
        vertices = graph.vertices()
        pairs = [(vertices[i], vertices[(i * 7 + 3) % len(vertices)]) for i in range(25)]
        csr = snapshot.csr
        bounds = index.bounds_for_pairs(
            np.asarray([csr.index_of(u) for u, _ in pairs]),
            np.asarray([csr.index_of(v) for _, v in pairs]),
        )
        executor = engine.batch_executor(method)
        results = executor.run_batch(pairs, {"num_walks": 120})
        for (u, v), bound, result in zip(pairs, bounds, results):
            assert result.score <= bound, (method, u, v)

    def test_self_pairs_are_never_pruned(self):
        graph = _random_graph(2)
        engine = SimRankEngine(graph, num_walks=80, seed=2)
        index = snapshot_index(engine.snapshot(), "sampling", num_walks=80)
        csr = index.csr
        bounds = index.bounds_for_vertex(0, np.asarray([0, 1, 2]))
        assert bounds[0] == np.inf
        pair_bounds = index.bounds_for_pairs(np.asarray([3, 4]), np.asarray([3, 5]))
        assert pair_bounds[0] == np.inf
        assert np.isfinite(pair_bounds[1])


class TestPrunedIdentity:
    """Pruned top-k is bit-identical to the scan — scores AND tie order."""

    @pytest.mark.parametrize("seed", (2, 13))
    @pytest.mark.parametrize("method", METHODS)
    def test_top_k_similar_to_matches_scan(self, seed, method):
        graph = _random_graph(seed)
        engine = SimRankEngine(graph, num_walks=120, seed=seed)
        query = graph.vertices()[0]
        scan = top_k_similar_to(engine, query, 6, method=method)
        pruned = top_k_similar_to(engine, query, 6, method=method, use_index=True)
        assert pruned == scan

    @pytest.mark.parametrize("method", ("sampling", "two_phase"))
    def test_top_k_similar_pairs_matches_scan(self, method):
        graph = _random_graph(8)
        engine = SimRankEngine(graph, num_walks=100, seed=8)
        vertices = graph.vertices()
        pairs = [
            (vertices[i], vertices[j])
            for i in range(0, 14)
            for j in range(i + 1, 14)
        ]
        scan = top_k_similar_pairs(engine, 5, candidate_pairs=pairs, method=method)
        pruned = top_k_similar_pairs(
            engine, 5, candidate_pairs=pairs, method=method, use_index=True
        )
        assert pruned == scan

    def test_adversarial_ties_keep_candidate_order(self):
        """Duplicated candidates produce exact ties; pruning must not reorder
        them (they re-score identically and tie-break on submission order)."""
        graph = _random_graph(6)
        engine = SimRankEngine(graph, num_walks=100, seed=6)
        vertices = graph.vertices()
        query = vertices[0]
        candidates = list(vertices[1:10]) + list(vertices[1:10])
        scan = top_k_similar_to(
            engine, query, 12, candidates=candidates, method="sampling"
        )
        pruned = top_k_similar_to(
            engine, query, 12, candidates=candidates, method="sampling", use_index=True
        )
        assert pruned == scan

    def test_k_exceeding_candidates_and_singleton(self):
        graph = _random_graph(4)
        engine = SimRankEngine(graph, num_walks=80, seed=4)
        vertices = graph.vertices()
        query = vertices[0]
        for k, candidates in ((99, vertices[1:5]), (1, vertices[1:2])):
            scan = top_k_similar_to(engine, query, k, candidates=candidates)
            pruned = top_k_similar_to(
                engine, query, k, candidates=candidates, use_index=True
            )
            assert pruned == scan

    def test_pair_chunk_size_never_changes_streamed_ranking(self, monkeypatch):
        """The streamed default pair space ranks identically at any chunk
        size, with and without per-chunk index pruning, through the service
        and the engine alike — and the pruning really drops candidates."""

        def graph():
            return rmat_uncertain(30, 90, rng=np.random.default_rng(5))

        engine = SimRankEngine(graph(), num_walks=80, seed=5)
        methods = ("sampling", "two_phase", "baseline")
        scans = {
            method: top_k_similar_pairs(engine, 5, method=method, use_index=False)
            for method in methods
        }
        with SimilarityService(graph(), num_walks=80, seed=5) as service:
            for chunk in (1, 3, 7):
                monkeypatch.setattr(topk_module, "PAIR_CHUNK_SIZE", chunk)
                for method in methods:
                    top = service.top_k_pairs(5, method=method)
                    assert list(top) == scans[method], (chunk, method)
                    assert top.candidates_total == 30 * 29 // 2
                    assert top.candidates_rescored < top.candidates_total
                    assert top_k_similar_pairs(
                        engine, 5, method=method, use_index=True
                    ) == scans[method], (chunk, method)


def _sink_graph(seed: int = 3):
    """A sparse R-MAT graph: about a third of its vertices are walk sinks."""
    return rmat_uncertain(40, 80, rng=np.random.default_rng(seed))


def _sinks_and_live(graph):
    frozen = CSRGraph.from_uncertain(graph)
    mask = sink_mask(frozen)
    sinks = [frozen.vertex_at(int(i)) for i in np.flatnonzero(mask)]
    live = [frozen.vertex_at(int(i)) for i in np.flatnonzero(~mask)]
    assert len(sinks) >= 5 and len(live) >= 5
    return sinks, live


class TestSinkRule:
    """Pairs with a sink endpoint score exactly 0.0; the index ranks them by
    position instead of bounding and rescoring every one of them."""

    @pytest.mark.parametrize("method", METHODS)
    def test_certified_pairs_score_exactly_zero(self, method):
        graph = _sink_graph()
        engine = SimRankEngine(graph, num_walks=100, seed=3)
        sinks, live = _sinks_and_live(graph)
        pairs = [(s, v) for s in sinks for v in live[:4]]
        pairs += [(v, s) for s in sinks for v in live[:4]]
        pairs += [(sinks[0], sinks[1])]
        results = engine.batch_executor(method).run_batch(pairs, {})
        assert [result.score for result in results] == [0.0] * len(pairs)

    @pytest.mark.parametrize("method", METHODS)
    def test_sink_query_rescores_only_k(self, method):
        graph = _sink_graph()
        engine = SimRankEngine(graph, num_walks=100, seed=3)
        sinks, _ = _sinks_and_live(graph)
        index = snapshot_index(engine.snapshot(), method)
        executor = engine.batch_executor(method)
        for query in sinks[:3]:
            candidates = [v for v in graph.vertices() if v != query]
            for k in (1, 4, len(candidates) + 5):
                scan = top_k_similar_to(engine, query, k, method=method)
                assert top_k_similar_to(
                    engine, query, k, method=method, use_index=True
                ) == scan
                ranked, stats = pruned_top_k_vertex(
                    executor, index, query, candidates, k
                )
                assert [(v, r.score) for v, r in ranked] == scan
                assert stats.candidates_total == len(candidates)
                assert stats.candidates_rescored == min(k, len(candidates))

    @pytest.mark.parametrize("method", METHODS)
    def test_live_query_skips_sink_candidates(self, method):
        graph = _sink_graph()
        engine = SimRankEngine(graph, num_walks=100, seed=3)
        sinks, live = _sinks_and_live(graph)
        index = snapshot_index(engine.snapshot(), method)
        query, k = live[0], 3
        candidates = [v for v in graph.vertices() if v != query]
        ranked, stats = pruned_top_k_vertex(
            engine.batch_executor(method), index, query, candidates, k
        )
        scan = top_k_similar_to(engine, query, k, method=method)
        assert [(v, r.score) for v, r in ranked] == scan
        # At most k of the sink candidates are ever rescored.
        assert stats.candidates_rescored <= len(candidates) - len(sinks) + k

    @pytest.mark.parametrize("method", METHODS)
    def test_pairs_with_sink_endpoints_match_scan(self, method):
        graph = _sink_graph()
        engine = SimRankEngine(graph, num_walks=100, seed=3)
        sinks, live = _sinks_and_live(graph)
        sink = sinks[0]
        pairs = [(s, v) for s in sinks[:4] for v in live[:4]]
        pairs += [(live[0], live[1]), (sink, sink), (live[2], sinks[1])]
        pairs += [(live[i], live[j]) for i in range(4) for j in range(i + 1, 5)]
        for k in (1, 3, len(pairs)):
            scan = top_k_similar_pairs(engine, k, candidate_pairs=pairs, method=method)
            pruned = top_k_similar_pairs(
                engine, k, candidate_pairs=pairs, method=method, use_index=True
            )
            assert pruned == scan
        scores = {(u, v): score for u, v, score in scan}
        assert scores[sink, sink] > 0.0  # m(0) = 1: self pairs are never certified
        index = snapshot_index(engine.snapshot(), method)
        _, stats = pruned_top_k_pairs(
            engine.batch_executor(method), index, pairs, 1
        )
        assert stats.candidates_total == len(pairs)
        assert stats.candidates_rescored <= len(pairs) - 17 + 1

    @pytest.mark.parametrize("method", METHODS)
    def test_vertex_losing_last_out_arc_becomes_sink(self, method):
        sinks, live = _sinks_and_live(_sink_graph())

        def scan(log, query, k):
            """The standalone engine scan at the graph state after ``log``."""
            frozen = _sink_graph()
            if log is not None:
                log.apply_to(frozen)
            engine = SimRankEngine(frozen, num_walks=80, seed=3)
            return top_k_similar_to(engine, query, k, method=method, use_index=False)

        with SimilarityService(_sink_graph(), num_walks=80, seed=3) as indexed:
            graph = indexed.registry.get(indexed.default_graph).graph
            query = live[0]
            log = MutationLog()
            for target in list(graph.out_arcs(query)):
                log.remove_edge(query, target)
            before = indexed.top_k_for_vertex(query, 3, method=method)
            assert before == scan(None, query, 3)
            indexed.mutate(log)
            after = indexed.top_k_for_vertex(query, 3, method=method)
            assert after == scan(log, query, 3)
            assert after.epoch > before.epoch
            assert after.candidates_rescored == 3
            assert [score for _, score in after] == [0.0, 0.0, 0.0]
            other = live[-1] if live[-1] != query else live[-2]
            assert indexed.top_k_for_vertex(other, 4, method=method) == scan(
                log, other, 4
            )

    def test_tiny_probability_arc_is_not_a_sink(self):
        graph = UncertainGraph(vertices=("sink",))
        graph.add_arc("a", "b", 1e-300)
        graph.add_arc("b", "a", 0.5)
        frozen = CSRGraph.from_uncertain(graph)
        mask = sink_mask(frozen)
        assert not mask[frozen.index_of("a")]
        assert not mask[frozen.index_of("b")]
        assert mask[frozen.index_of("sink")]
        # Survival underflows to its slack: it cannot tell "a" from a sink.
        assert survival_masses(frozen)[frozen.index_of("a")] == BOUND_SLACK


class TestIndexStore:
    def test_hit_miss_accounting_and_reuse(self):
        store = TopKIndexStore(budget_bytes=1024)
        built = []

        def build():
            built.append(1)
            return np.zeros(16, dtype=np.uint8)

        first, first_ms = store.get_or_build(("a",), build)
        second, second_ms = store.get_or_build(("a",), build)
        assert second is first
        assert len(built) == 1
        assert second_ms == 0.0
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_lru_eviction_under_budget(self):
        store = TopKIndexStore(budget_bytes=100)
        make = lambda: np.zeros(40, dtype=np.uint8)  # noqa: E731
        store.get_or_build(("a",), make)
        store.get_or_build(("b",), make)
        store.get_or_build(("a",), make)  # refresh a
        store.get_or_build(("c",), make)  # evicts b (LRU)
        assert store.stats.evictions == 1
        assert store.current_bytes == 80
        hits_before = store.stats.hits
        store.get_or_build(("a",), make)
        assert store.stats.hits == hits_before + 1  # a survived the eviction
        assert not store.peek(("b",))

    def test_single_over_budget_artifact_refused(self):
        store = TopKIndexStore(budget_bytes=10)
        artifact, _ = store.get_or_build(
            ("big",), lambda: np.zeros(64, dtype=np.uint8)
        )
        assert artifact is None
        assert store.stats.evictions == 1
        assert len(store) == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            TopKIndexStore(budget_bytes=0)

    def test_stats_shape(self):
        """The index store reports the bundle store's counters and the
        uniform cache shape; the tenant adds its entry count."""
        store = TopKIndexStore()
        assert isinstance(store, WalkBundleStore)
        assert set(store.cache_stats()) == {"hits", "misses", "evictions", "bytes"}
        assert set(store.stats.as_dict()) == {
            "hits", "misses", "evictions", "invalidations", "repairs",
            "rows_repaired", "hit_rate",
        }
        with SimilarityService(_random_graph(3), num_walks=60, seed=3) as service:
            service.top_k_for_vertex(service.tenant().graph.vertices()[0], 3)
            shape = service.service_stats()["tenants"]["default"]["topk_index"]["store"]
        assert set(shape) == {"entries", "hits", "misses", "evictions", "bytes"}
        assert shape["entries"] > 0 and shape["bytes"] > 0

    def test_engine_budget_gates_the_index(self):
        """An engine with a tiny index budget silently serves the scan."""
        graph = _random_graph(7)
        engine = SimRankEngine(
            graph, num_walks=60, seed=7, topk_index_budget_bytes=8
        )
        assert snapshot_index(engine.snapshot(), "sampling", num_walks=60) is None
        query = graph.vertices()[0]
        reference = SimRankEngine(graph, num_walks=60, seed=7)
        assert top_k_similar_to(
            engine, query, 3, method="sampling", use_index=True
        ) == top_k_similar_to(reference, query, 3, method="sampling")

    def test_index_artifacts_cached_across_queries(self):
        graph = _random_graph(12)
        engine = SimRankEngine(graph, num_walks=60, seed=12)
        query = graph.vertices()[0]
        top_k_similar_to(engine, query, 3, method="sampling", use_index=True)
        store = engine.caches.topk_indexes
        misses_after_first = store.stats.misses
        top_k_similar_to(engine, graph.vertices()[1], 3, method="sampling", use_index=True)
        assert store.stats.misses == misses_after_first  # artifacts reused
        assert store.stats.hits > 0

    def test_mutation_retires_index_with_the_caches(self):
        graph = _random_graph(14)
        engine = SimRankEngine(graph, num_walks=60, seed=14)
        query = graph.vertices()[0]
        top_k_similar_to(engine, query, 3, method="sampling", use_index=True)
        before = engine.caches.topk_indexes
        assert len(before) > 0
        u, v = graph.vertices()[0], graph.vertices()[1]
        if not graph.has_arc(u, v):
            graph.add_arc(u, v, 0.5)
        else:
            graph.remove_arc(u, v)
        after = engine.caches.topk_indexes
        assert after is not before  # snapshot-scoped: replaced wholesale
        assert len(after) == 0


class TestLanesFillTheStore:
    """The lane build resolves through the tenant's bundle store, so the
    rescore that follows reads what the build sampled."""

    def test_second_indexed_query_samples_no_walks(self, monkeypatch):
        graph = _random_graph(21, num_vertices=60, num_edges=200)
        vertices = graph.vertices()
        with SimilarityService(graph, iterations=4, num_walks=64, seed=21) as service:
            first = service.top_k_for_vertex(vertices[0], 5)
            assert first.candidates_rescored is not None  # the index served it
            # The build sampled every vertex once; the rescore only hit.
            assert service.store.stats.misses == len(vertices)
            misses = service.store.stats.misses
            sampled = []
            sample = kernels.KERNEL.sample

            def counting(*args, **kwargs):
                walks = sample(*args, **kwargs)
                sampled.append(len(walks))
                return walks

            monkeypatch.setattr(kernels.KERNEL, "sample", counting)
            second = service.top_k_for_vertex(vertices[1], 5)
            assert second.candidates_rescored is not None
            assert service.store.stats.misses == misses
            assert sampled == []

    def test_lanes_over_the_index_budget_leave_the_store_empty(self):
        """Lanes too large for the index budget are refused before the
        build resolves a single bundle; the query falls back to the scan."""
        graph = _random_graph(23, num_vertices=60, num_edges=200)
        walks, iterations = 64, 4
        lane_bytes = 60 * iterations * walks * np.dtype(np.int16).itemsize
        bundles = WalkBundleStore(budget_bytes=None)
        engine = SimRankEngine(
            graph, iterations=iterations, num_walks=walks, seed=23,
            bundle_store=bundles, topk_index_budget_bytes=lane_bytes - 1,
        )
        assert snapshot_index(engine.snapshot(), "sampling") is None
        assert len(bundles) == 0
        assert bundles.stats.misses == 0
        assert len(engine.caches.topk_indexes) == 2  # survival and sinks fit
        query = graph.vertices()[0]
        reference = SimRankEngine(
            graph, iterations=iterations, num_walks=walks, seed=23
        )
        assert top_k_similar_to(
            engine, query, 5, method="sampling", use_index=True
        ) == top_k_similar_to(reference, query, 5, method="sampling")

    @pytest.mark.parametrize("method", ("sampling", "two_phase"))
    def test_budget_below_all_bundles_evicts_and_matches_scan(self, method):
        graph = _random_graph(22, num_vertices=60, num_edges=200)
        vertices = graph.vertices()
        walks, iterations = 64, 4
        bundle_bytes = walks * (iterations + 1) * np.dtype(np.int16).itemsize
        budget = 20 * bundle_bytes  # a third of the 60 vertex bundles
        engine = SimRankEngine(graph, iterations=iterations, num_walks=walks, seed=22)
        with SimilarityService(
            graph, iterations=iterations, num_walks=walks, seed=22,
            store_budget_bytes=budget,
        ) as service:
            for query in vertices[:4]:
                top = service.top_k_for_vertex(query, 5, method=method)
                assert top.candidates_rescored is not None
                assert list(top) == top_k_similar_to(engine, query, 5, method=method)
            assert service.store.stats.evictions > 0
            assert service.store.current_bytes <= budget


class TestTransitionCache:
    """Entries weigh ``(states + 1) · TRANSITION_STATE_BYTES``, so a byte
    budget of ``s · TRANSITION_STATE_BYTES`` evicts exactly where a budget
    of ``s`` states did."""

    def test_put_get_and_lru(self):
        cache = TransitionCache(budget_bytes=5 * TRANSITION_STATE_BYTES)
        entry_a = [{"x": 0.5}, {"y": 0.5}]  # 2 states + 1 overhead = 3
        entry_b = [{"z": 1.0}]  # 1 state + 1 overhead = 2
        cache.put("a", entry_a)
        cache.put("b", entry_b)
        assert cache.current_bytes == 5 * TRANSITION_STATE_BYTES
        assert cache.get("a") is entry_a
        cache.put("c", [{"w": 1.0}])  # evicts b: a was refreshed by the get
        assert cache.get("b") is None
        assert cache.get("a") is entry_a
        stats = cache.cache_stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["bytes"] == 5 * TRANSITION_STATE_BYTES

    def test_default_budget_holds_250000_states(self):
        cache = TransitionCache()
        assert cache.budget_bytes == 250_000 * TRANSITION_STATE_BYTES
        fits = [dict.fromkeys(range(249_999), 0.0)]  # + 1 overhead = 250,000
        cache.put("fits", fits)
        assert cache.get("fits") is fits
        cache.put("over", [{"x": 1.0}])  # one more state evicts "fits"
        assert not cache.peek("fits") and cache.peek("over")
        cache.put("big", [dict.fromkeys(range(250_000), 0.0)])
        assert not cache.peek("big")
        assert cache.stats.evictions == 2

    def test_oversized_entry_refused(self):
        cache = TransitionCache(budget_bytes=2 * TRANSITION_STATE_BYTES)
        cache.put("big", [{"a": 0.5, "b": 0.5}, {"c": 1.0}])
        assert len(cache) == 0
        assert cache.stats.evictions == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            TransitionCache(budget_bytes=0)

    def test_exact_distributions_shared_across_batches(self):
        """The cross-batch satellite: a second batch on the same snapshot
        reuses the exact transition distributions of the first."""
        graph = _random_graph(5)
        engine = SimRankEngine(graph, num_walks=60, seed=5)
        snapshot = engine.snapshot()
        pairs = [(graph.vertices()[0], graph.vertices()[1])]
        executor_for("two_phase")(snapshot).run_batch(pairs, {})
        transitions = snapshot.caches.transitions
        assert len(transitions) > 0
        misses_before = transitions.stats.misses
        executor_for("two_phase")(snapshot).run_batch(pairs, {})
        assert transitions.stats.misses == misses_before  # all served from cache
        assert transitions.stats.hits > 0
