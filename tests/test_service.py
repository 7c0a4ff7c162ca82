"""Tests for the similarity query service subsystem (repro.service)."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.baseline import baseline_simrank
from repro.core.batch_walks import (
    meeting_probabilities_against_many,
    meeting_probabilities_from_matrices,
    sample_walk_matrix_keyed,
)
from repro.core.engine import SimRankEngine
from repro.core.simrank import simrank_from_meeting_probabilities
from repro.graph.csr import CSRGraph
from repro.service import (
    PairQuery,
    ShardedWalkSampler,
    SimilarityService,
    TopKPairsQuery,
    TopKVertexQuery,
    WalkBundleStore,
)
from repro.service.runner import run
from repro.service.sharding import shard_world_keys
from repro.utils.errors import InvalidParameterError


def _array(value: float, size: int = 10) -> np.ndarray:
    return np.full(size, value, dtype=np.int64)  # 8 bytes per entry


class TestWalkBundleStore:
    def test_roundtrip_and_counters(self):
        store = WalkBundleStore(budget_bytes=1024)
        assert store.get("a") is None
        bundle = _array(1.0)
        store.put("a", bundle)
        assert store.get("a") is bundle
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.hit_rate == pytest.approx(0.5)
        assert store.current_bytes == bundle.nbytes

    def test_lru_eviction_under_budget(self):
        store = WalkBundleStore(budget_bytes=250)  # three 80-byte bundles max
        for name in ("a", "b", "c"):
            store.put(name, _array(0.0))
        store.get("a")  # refresh a; b is now least-recently-used
        store.put("d", _array(0.0))
        assert store.peek("a") and store.peek("c") and store.peek("d")
        assert not store.peek("b")
        assert store.stats.evictions == 1
        assert store.current_bytes <= 250

    def test_oversized_bundle_not_retained(self):
        store = WalkBundleStore(budget_bytes=64)
        bundle = _array(0.0, size=100)
        returned = store.put("big", bundle)
        assert returned is bundle
        assert len(store) == 0

    def test_replacing_key_adjusts_bytes(self):
        store = WalkBundleStore(budget_bytes=1024)
        store.put("a", _array(0.0, size=10))
        store.put("a", _array(0.0, size=20))
        assert store.current_bytes == 160
        assert len(store) == 1

    def test_sync_version_invalidates(self):
        store = WalkBundleStore()
        store.sync_version(("g", 1))
        store.put("a", _array(0.0))
        assert not store.sync_version(("g", 1))  # unchanged: no-op
        assert store.sync_version(("g", 2))
        assert len(store) == 0
        assert store.stats.invalidations == 1

    def test_peek_does_not_touch_stats(self):
        store = WalkBundleStore()
        store.put("a", _array(0.0))
        store.peek("a")
        store.peek("missing")
        assert store.stats.lookups == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            WalkBundleStore(budget_bytes=0)


class TestShardedWalkSampler:
    def test_world_keys_are_shard_structured(self):
        sampler = ShardedWalkSampler(seed=5, shard_size=16)
        keys = sampler.world_keys(3, False, 40)
        assert keys.shape == (40,)
        expected = np.concatenate(
            [
                shard_world_keys(5, 3, False, 0, 16),
                shard_world_keys(5, 3, False, 1, 16),
                shard_world_keys(5, 3, False, 2, 8),
            ]
        )
        assert np.array_equal(keys, expected)

    def test_twin_keys_differ(self):
        sampler = ShardedWalkSampler(seed=5, shard_size=16)
        assert not np.array_equal(
            sampler.world_keys(3, False, 32), sampler.world_keys(3, True, 32)
        )

    def test_sharded_bundles_bit_identical_across_executors(self, paper_graph):
        """Acceptance pin: sharded results == single-process vectorized backend.

        The same seed and shard scheme must yield byte-identical walk
        matrices whether sampling runs serially in-process, across threads,
        or across worker processes.
        """
        csr = CSRGraph.from_uncertain(paper_graph)
        requests = [(0, False), (1, False), (2, False), (1, True)]
        reference = None
        for executor, workers in (("serial", 1), ("thread", 3), ("process", 2)):
            with ShardedWalkSampler(
                seed=11, shard_size=64, num_workers=workers, executor=executor
            ) as sampler:
                bundles = sampler.sample_bundles(csr, requests, 4, 300)
            if reference is None:
                reference = bundles
                continue
            for request in requests:
                assert np.array_equal(bundles[request], reference[request]), (
                    executor,
                    request,
                )

    def test_matches_direct_keyed_call(self, paper_graph):
        """A sampled bundle is exactly the keyed sampler run on its world keys."""
        csr = CSRGraph.from_uncertain(paper_graph)
        sampler = ShardedWalkSampler(seed=11, shard_size=32)
        bundle = sampler.sample_bundle(csr, 2, 4, 100)
        direct = sample_walk_matrix_keyed(
            csr,
            np.full(100, 2, dtype=np.int64),
            4,
            sampler.world_keys(2, False, 100),
        )
        assert np.array_equal(bundle, direct)

    def test_duplicate_requests_collapse(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        sampler = ShardedWalkSampler(seed=3)
        bundles = sampler.sample_bundles(csr, [(0, False), (0, False)], 3, 50)
        assert set(bundles) == {(0, False)}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShardedWalkSampler(executor="gpu")
        with pytest.raises(InvalidParameterError):
            ShardedWalkSampler(shard_size=0)
        with pytest.raises(InvalidParameterError):
            ShardedWalkSampler(num_workers=0)


@pytest.mark.watchdog(180)
class TestSimilarityService:
    def test_pair_matches_bundles_exactly(self, paper_graph):
        """A pair answer is exactly the estimate of the deterministic bundles."""
        with SimilarityService(
            paper_graph, iterations=4, num_walks=200, seed=9
        ) as service:
            result = service.pair("v1", "v2")
        csr = CSRGraph.from_uncertain(paper_graph)
        sampler = ShardedWalkSampler(seed=9)
        bundle_u = sampler.sample_bundle(csr, csr.index_of("v1"), 4, 200)
        bundle_v = sampler.sample_bundle(csr, csr.index_of("v2"), 4, 200)
        meetings = meeting_probabilities_from_matrices(bundle_u, bundle_v, 4, False)
        assert result.score == simrank_from_meeting_probabilities(meetings, 0.6)
        assert result.details["service"] is True

    def test_pair_statistically_consistent_with_exact(self, paper_graph):
        exact = baseline_simrank(paper_graph, "v1", "v2", iterations=4).score
        with SimilarityService(
            paper_graph, iterations=4, num_walks=6000, seed=2
        ) as service:
            result = service.pair("v1", "v2")
        assert result.score == pytest.approx(exact, abs=0.025)

    def test_results_bit_identical_across_executors(self, paper_graph):
        """Acceptance pin at the service level: same seed, same answers,
        regardless of worker pool kind or size."""
        outcomes = []
        for executor, workers in (("serial", 1), ("thread", 4), ("process", 2)):
            with SimilarityService(
                paper_graph,
                iterations=4,
                num_walks=500,
                seed=17,
                shard_size=64,
                num_workers=workers,
                executor=executor,
            ) as service:
                outcomes.append(
                    (
                        service.pair("v1", "v2").score,
                        service.top_k_for_vertex("v1", 3),
                        service.top_k_pairs(3),
                    )
                )
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_top_k_matches_pairwise_answers(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=4, num_walks=400, seed=5
        ) as service:
            top = service.top_k_for_vertex("v1", 4)
            pair_scores = {
                v: service.pair("v1", v).score
                for v in paper_graph.vertices()
                if v != "v1"
            }
        expected = sorted(pair_scores.items(), key=lambda item: item[1], reverse=True)
        assert [score for _, score in top] == [score for _, score in expected[:4]]

    def test_top_k_pairs_excludes_nothing_under_large_k(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=3, num_walks=100, seed=5
        ) as service:
            pairs = [("v1", "v2"), ("v2", "v3")]
            top = service.top_k_pairs(10, candidate_pairs=pairs)
            direct = service.submit(
                TopKPairsQuery(10, tuple(pairs))
            ).result(timeout=30)
        assert len(top) == 2
        assert top == direct

    def test_self_pair_uses_twin_bundle(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=4, num_walks=500, seed=5
        ) as service:
            result = service.pair("v1", "v1")
            store_keys_twin = service.store.peek(
                service.sampler.store_key(0, True, 4, 500)
            )
        assert result.meeting_probabilities[0] == 1.0
        assert store_keys_twin  # a second, independent bundle was sampled

    def test_store_reused_across_batches(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=4, num_walks=200, seed=5
        ) as service:
            service.pair("v1", "v2")
            entries_after_first = len(service.store)
            misses_after_first = service.store.stats.misses
            service.pair("v1", "v2")
            assert len(service.store) == entries_after_first
            assert service.store.stats.misses == misses_after_first
            assert service.store.stats.hits >= 2

    def test_graph_mutation_invalidates_store(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=4, num_walks=200, seed=5
        ) as service:
            before = service.pair("v1", "v2").score
            paper_graph.add_arc("v5", "v1", 0.9)
            after = service.pair("v1", "v2").score
            assert service.store.stats.invalidations == 1
        assert before != after  # the new arc changes the walk distribution

    def test_unknown_vertex_fails_only_that_query(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=4, num_walks=100, seed=5, batch_wait_seconds=0.2
        ) as service:
            bad = service.submit(PairQuery("v1", "nope"))
            good = service.submit(PairQuery("v1", "v2"))
            with pytest.raises(InvalidParameterError):
                bad.result(timeout=30)
            assert 0.0 <= good.result(timeout=30).score <= 1.0

    def test_invalid_k_rejected(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=4, num_walks=100, seed=5
        ) as service:
            with pytest.raises(InvalidParameterError):
                service.top_k_for_vertex("v1", 0)
            with pytest.raises(InvalidParameterError):
                service.top_k_pairs(0)

    def test_concurrent_submissions_coalesce(self, paper_graph):
        with SimilarityService(
            paper_graph,
            iterations=4,
            num_walks=100,
            seed=5,
            batch_wait_seconds=0.25,
        ) as service:
            futures = [
                service.submit(PairQuery("v1", "v2")),
                service.submit(PairQuery("v2", "v3")),
                service.submit(TopKVertexQuery("v1", 2)),
            ]
            for future in futures:
                future.result(timeout=30)
            stats = service.service_stats()
        assert stats["queries"] == 3
        assert stats["largest_batch"] >= 2

    def test_method_fallback_matches_engine(self, paper_graph):
        with SimilarityService(paper_graph, iterations=4, seed=5) as service:
            via_service = service.pair("v1", "v2", method="baseline").score
        direct = baseline_simrank(paper_graph, "v1", "v2", iterations=4).score
        assert via_service == pytest.approx(direct)

    def test_fallback_top_k(self, paper_graph):
        with SimilarityService(paper_graph, iterations=3, seed=5) as service:
            top = service.top_k_for_vertex("v1", 2, method="baseline")
        assert len(top) == 2
        assert top[0][1] >= top[1][1]

    def test_empty_candidate_pairs_returns_empty(self, paper_graph):
        """An explicitly empty candidate set must not escalate to all pairs."""
        with SimilarityService(
            paper_graph, iterations=3, num_walks=50, seed=1
        ) as service:
            assert service.top_k_pairs(5, candidate_pairs=[]) == []
            assert service.top_k_for_vertex("v1", 5, candidates=[]) == []

    def test_default_pairs_stream_matches_explicit_candidates(self, paper_graph):
        """The streamed all-pairs path scores exactly like the batch path."""
        from itertools import combinations

        with SimilarityService(
            paper_graph, iterations=4, num_walks=200, seed=3
        ) as service:
            streamed = service.top_k_pairs(4)
            explicit = service.top_k_pairs(
                4, candidate_pairs=list(combinations(paper_graph.vertices(), 2))
            )
        assert streamed == explicit

    def test_cancelled_future_does_not_kill_worker(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=3, num_walks=50, seed=1, batch_wait_seconds=0.1
        ) as service:
            doomed = service.submit(PairQuery("v1", "v2"))
            doomed.cancel()
            # The worker must survive resolving the cancelled future and keep
            # serving subsequent queries.
            assert 0.0 <= service.pair("v2", "v3").score <= 1.0

    def test_engine_and_service_bundles_do_not_alias(self, paper_graph):
        """The engine's stateful-RNG bundles and the sampler's keyed bundles
        share the store but live under different key namespaces."""
        with SimilarityService(
            paper_graph, iterations=4, num_walks=100, seed=9
        ) as service:
            baseline_score = service.pair("v1", "v2").score
            # Fallback-path batched call fills "rng"-namespace entries...
            service.engine.similarity_many(
                [("v1", "v2"), ("v2", "v3")], method="sampling"
            )
            # ...which must not perturb the deterministic service answers.
            assert service.pair("v1", "v2").score == baseline_score

    def test_closed_service_rejects_submissions(self, paper_graph):
        service = SimilarityService(paper_graph, num_walks=50, seed=1)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(PairQuery("v1", "v2"))
        service.close()  # idempotent

    def test_unknown_query_type_rejected(self, paper_graph):
        with SimilarityService(paper_graph, num_walks=50, seed=1) as service:
            with pytest.raises(InvalidParameterError):
                service.submit(("v1", "v2"))


@pytest.mark.watchdog(180)
class TestGroupFailureIsolation:
    def test_one_failing_query_does_not_fail_its_group(self, paper_graph, monkeypatch):
        """A runtime failure inside the grouped run_batch is retried per
        query, so only the query that caused it fails (regression)."""
        from repro.service import service as service_module

        real_executor_for = service_module.executor_for

        def poisoned_executor_for(method):
            cls = real_executor_for(method)

            class Poisoned(cls):  # type: ignore[misc, valid-type]
                def _run(self, pairs, overrides):
                    if ("v1", "v2") in pairs:
                        raise RuntimeError("poisoned pair")
                    return super()._run(pairs, overrides)

            return Poisoned

        monkeypatch.setattr(service_module, "executor_for", poisoned_executor_for)
        with SimilarityService(
            paper_graph, num_walks=50, seed=1, batch_wait_seconds=0.2
        ) as service:
            doomed = service.submit(PairQuery("v1", "v2"))
            fine = service.submit(PairQuery("v2", "v3"))
            assert fine.result(timeout=30).score >= 0.0
            with pytest.raises(RuntimeError, match="poisoned"):
                doomed.result(timeout=30)


class TestEngineBundleStore:
    def test_similarity_many_persists_bundles(self, paper_graph):
        store = WalkBundleStore()
        engine = SimRankEngine(paper_graph, num_walks=100, seed=7, bundle_store=store)
        engine.similarity_many([("v1", "v2"), ("v2", "v3")], method="sampling")
        assert len(store) == 3
        misses = store.stats.misses
        engine.similarity_many([("v1", "v2"), ("v2", "v3")], method="sampling")
        assert store.stats.misses == misses  # all hits the second time

    def test_store_invalidated_by_mutation(self, paper_graph):
        store = WalkBundleStore()
        engine = SimRankEngine(paper_graph, num_walks=100, seed=7, bundle_store=store)
        engine.similarity_many([("v1", "v2"), ("v2", "v3")], method="sampling")
        paper_graph.add_arc("v5", "v1", 0.5)
        engine.similarity_many([("v1", "v2"), ("v2", "v3")], method="sampling")
        assert store.stats.invalidations == 1

    def test_single_pair_call_uses_store(self, paper_graph):
        """With a store, a one-pair similarity_many must not bypass it: the
        score agrees with the batched path and cached bundles are reused."""
        store = WalkBundleStore()
        engine = SimRankEngine(paper_graph, num_walks=100, seed=7, bundle_store=store)
        batched = engine.similarity_many(
            [("v1", "v2"), ("v2", "v3")], method="sampling"
        )[0].score
        single = engine.similarity_many([("v1", "v2")], method="sampling")[0].score
        assert single == batched
        assert engine.similarity_many([("v1", "v2")], method="sampling")[0].details[
            "shared_bundles"
        ]


class TestMeetingProbabilitiesAgainstMany:
    def test_matches_pairwise_helper(self, paper_graph, rng):
        csr = CSRGraph.from_uncertain(paper_graph)
        sampler = ShardedWalkSampler(seed=3)
        query = sampler.sample_bundle(csr, 0, 4, 150)
        candidates = [sampler.sample_bundle(csr, i, 4, 150) for i in (1, 2, 3)]
        batched = meeting_probabilities_against_many(query, candidates, 4, chunk_size=2)
        for row, candidate in zip(batched, candidates):
            pairwise = meeting_probabilities_from_matrices(query, candidate, 4, False)
            assert row.tolist() == pytest.approx(pairwise[1:])

    def test_shape_validation(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        sampler = ShardedWalkSampler(seed=3)
        query = sampler.sample_bundle(csr, 0, 4, 50)
        other = sampler.sample_bundle(csr, 1, 4, 60)
        with pytest.raises(InvalidParameterError):
            meeting_probabilities_against_many(query, [other], 4)
        with pytest.raises(InvalidParameterError):
            meeting_probabilities_against_many(query, [query], 9)


class TestRunner:
    def _run(self, lines, *extra_args):
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        code = run(
            ["--graph", "example", "--seed", "7", "--num-walks", "200", *extra_args],
            stdin=stdin,
            stdout=stdout,
            stderr=stderr,
        )
        return code, stdout.getvalue(), stderr.getvalue()

    def test_mixed_request_stream(self):
        code, out, _ = self._run(
            [
                '{"op": "pair", "u": "v1", "v": "v2", "id": 7}',
                '{"op": "top_k", "query": "v1", "k": 2}',
                '{"op": "top_k_pairs", "k": 2, "pairs": [["v1", "v2"], ["v2", "v3"]]}',
                "# a comment line",
                '{"op": "pair", "u": "v1", "v": "nope"}',
                "not json at all",
            ]
        )
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert len(responses) == 5
        assert responses[0]["id"] == 7
        assert 0.0 <= responses[0]["score"] <= 1.0
        assert len(responses[1]["results"]) == 2
        assert len(responses[2]["results"]) == 2
        assert "not in the graph" in responses[3]["error"]
        assert "error" in responses[4]

    def test_malformed_request_keeps_op_and_id(self):
        code, out, _ = self._run(['{"op": "pair", "u": "v1", "id": 42}'])
        assert code == 0
        response = json.loads(out.strip())
        assert response["op"] == "pair"
        assert response["id"] == 42
        assert "missing required field 'v'" in response["error"]

    def test_non_integer_k_and_num_walks_rejected(self):
        """``k`` / ``num_walks`` are never coerced: "3", 2.5 and true are
        refused with an error line, and the stream keeps serving."""
        bad = ('"3"', "2.5", "true")
        lines = [f'{{"op": "top_k", "query": "v1", "k": {value}, "id": 1}}' for value in bad]
        lines += [f'{{"op": "top_k_pairs", "k": {value}}}' for value in bad]
        lines += [
            f'{{"op": "pair", "u": "v1", "v": "v2", "num_walks": {value}}}' for value in bad
        ]
        lines.append('{"op": "top_k", "query": "v1", "k": 2, "num_walks": 100}')
        code, out, _ = self._run(lines)
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert len(responses) == len(lines)
        for response in responses[:3]:
            assert response["id"] == 1
            assert "field 'k' must be an integer" in response["error"]
        for response in responses[3:6]:
            assert "field 'k' must be an integer" in response["error"]
        for response in responses[6:9]:
            assert "field 'num_walks' must be an integer" in response["error"]
        assert "error" not in responses[-1]
        assert len(responses[-1]["results"]) == 2

    def _errors(self, lines):
        code, out, _ = self._run(lines)
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert len(responses) == len(lines)
        return [response.get("error") for response in responses]

    def test_create_graph_kernel_param_rejected(self):
        """There is one walk kernel: ``params.kernel`` is an unknown field."""
        errors = self._errors(
            [
                '{"op": "create_graph", "graph": "g", "edges": [["a", "b", 0.5]], '
                '"params": {"kernel": "reference"}}',
                '{"op": "pair", "graph": "g", "u": "a", "v": "b"}',
            ]
        )
        assert "unknown tenant config field(s) ['kernel']" in errors[0]
        assert "unknown graph 'g'" in errors[1]

    @pytest.mark.parametrize(
        "params, field",
        [
            ('{"num_walks": 2.5}', "params.num_walks"),
            ('{"num_walks": true}', "params.num_walks"),
            ('{"num_walks": null}', "params.num_walks"),
            ('{"seed": "7"}', "params.seed"),
            ('{"store_budget_bytes": 1e6}', "params.store_budget_bytes"),
            ('{"decay": "0.6"}', "params.decay"),
        ],
    )
    def test_create_graph_params_type_checked(self, params, field):
        """Integer params are never coerced; the tenant is not created."""
        errors = self._errors(
            [
                '{"op": "create_graph", "graph": "g", "edges": [["a", "b", 0.5]], '
                f'"params": {params}}}',
                '{"op": "pair", "graph": "g", "u": "a", "v": "b"}',
            ]
        )
        assert f"field {field!r} must be" in errors[0]
        assert "unknown graph 'g'" in errors[1]

    def test_create_graph_nullable_params_accept_null(self):
        errors = self._errors(
            [
                '{"op": "create_graph", "graph": "g", "edges": [["a", "b", 0.5]], '
                '"params": {"seed": null, "max_num_walks": null, "num_walks": 50}}',
                '{"op": "pair", "graph": "g", "u": "a", "v": "b"}',
            ]
        )
        assert errors == [None, None]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"op": "create_graph", "graph": "g", "edges": [["a", "b", "0.5"]]}',
             "field 'edges probability' must be a number"),
            ('{"op": "create_graph", "graph": "g", "edges": [["a", "b", true]]}',
             "field 'edges probability' must be a number"),
            ('{"op": "create_graph", "graph": "g", "edges": "abc"}',
             "field 'edges' must be an array"),
            ('{"op": "create_graph", "graph": "g", "edges": [["a", "b"]]}',
             "field 'edges' items must be arrays of length 3"),
            ('{"op": "create_graph", "graph": "g", "vertices": "abc"}',
             "field 'vertices' must be an array"),
            ('{"op": "mutate", "graph": "default", "ops": '
             '[{"op": "add_edge", "u": "v1", "v": "x", "probability": "0.4"}]}',
             "field 'probability' must be a number"),
            ('{"op": "mutate", "graph": "default", "ops": '
             '[{"op": "update_probability", "u": "v1", "v": "v2", "probability": true}]}',
             "field 'probability' must be a number"),
            ('{"op": "mutate", "graph": "default", "ops": {}}',
             "field 'ops' must be an array"),
            ('{"op": "top_k", "query": "v1", "k": 2, "candidates": "v2"}',
             "field 'candidates' must be an array"),
            ('{"op": "top_k_pairs", "k": 2, "pairs": "v1v2"}',
             "field 'pairs' must be an array"),
            ('{"op": "top_k_pairs", "k": 2, "pairs": [["v1", "v2", "v3"]]}',
             "field 'pairs' items must be arrays of length 2"),
        ],
    )
    def test_probabilities_and_arrays_never_coerced(self, line, message):
        """Each malformed field yields an error line naming it; the graph is
        untouched and the stream keeps serving."""
        errors = self._errors(
            [
                line,
                '{"op": "mutate", "graph": "default", "ops": []}',
                '{"op": "pair", "u": "v1", "v": "v2"}',
            ]
        )
        assert message in errors[0]
        assert errors[1:] == [None, None]

    def test_stats_flag(self):
        code, _, err = self._run(['{"op": "pair", "u": "v1", "v": "v2"}'], "--stats")
        assert code == 0
        stats = json.loads(err)
        assert stats["queries"] == 1
        assert stats["store"]["misses"] >= 2

    def test_deterministic_across_runs(self):
        lines = ['{"op": "pair", "u": "v1", "v": "v2"}']
        _, first, _ = self._run(lines)
        _, second, _ = self._run(lines)
        assert first == second

    def test_file_io(self, tmp_path):
        requests = tmp_path / "requests.jsonl"
        responses = tmp_path / "responses.jsonl"
        requests.write_text('{"op": "pair", "u": "v1", "v": "v2"}\n', encoding="utf-8")
        code = run(
            [
                "--graph", "example", "--seed", "3",
                "--num-walks", "100",
                "--input", str(requests),
                "--output", str(responses),
            ]
        )
        assert code == 0
        record = json.loads(responses.read_text(encoding="utf-8").strip())
        assert record["op"] == "pair"

    def test_unknown_graph_fails_cleanly(self):
        stderr = io.StringIO()
        code = run(
            ["--graph", "not-a-dataset"],
            stdin=io.StringIO(""),
            stdout=io.StringIO(),
            stderr=stderr,
        )
        assert code == 2
        assert "could not load graph" in stderr.getvalue()
