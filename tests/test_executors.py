"""Tests for the snapshot-scoped method executors (repro.core.executors).

Covers the registry and the uniform override declarations, the batched
shared-prefix stages of the exact-path executors (bit-identity to the
per-pair algorithms), the keyed walk source (bit-identity to the sharded
sampler), the batching-never-changes-answers property every vectorized
executor now has, and the snapshot-scoped SR-SP table store.
"""

from __future__ import annotations

import io
import json
import sys
import threading
from itertools import combinations

import numpy as np
import pytest

import repro.core.executors as executors
from repro.core.baseline import baseline_simrank
from repro.core.batch_walks import endpoint_world_keys, sample_walk_matrix_keyed
from repro.core.engine import SimRankEngine
from repro.core.executors import (
    EXECUTOR_TYPES,
    METHODS,
    BaselineExecutor,
    WalkSource,
    executor_for,
    make_executor,
)
from repro.core.speedup import FilterVectors
from repro.graph.csr import CSRGraph, CSRGraphView
from repro.graph.generators import rmat_uncertain
from repro.graph.uncertain_graph import UncertainGraph
from repro.service import (
    MutationLog,
    ShardedWalkSampler,
    SimilarityService,
    WalkBundleStore,
)
from repro.service.runner import run
from repro.utils.errors import InvalidParameterError
from tests.speedup_oracle import oracle_meetings


class TestRegistry:
    def test_every_paper_method_registered(self):
        assert tuple(EXECUTOR_TYPES) == METHODS

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown method"):
            executor_for("magic")

    def test_make_executor_builds_snapshot_scoped_instance(self, paper_graph):
        engine = SimRankEngine(paper_graph, seed=3)
        executor = make_executor("baseline", engine.snapshot())
        assert isinstance(executor, BaselineExecutor)
        assert executor.snapshot.csr is engine.caches.csr


class TestAcceptedOverrides:
    def test_baseline_rejects_num_walks_with_clear_error(self, paper_graph):
        engine = SimRankEngine(paper_graph, seed=3)
        with pytest.raises(InvalidParameterError) as excinfo:
            engine.similarity("v1", "v2", method="baseline", num_walks=50)
        message = str(excinfo.value)
        assert "baseline" in message and "num_walks" in message
        assert "max_states" in message  # the error names what IS accepted

    def test_every_executor_rejects_unknown_override(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=50, seed=3)
        for method in METHODS:
            with pytest.raises(InvalidParameterError, match="does not accept"):
                engine.similarity("v1", "v2", method=method, nonsense=1)

    def test_sampled_methods_accept_num_walks(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=300, seed=3)
        for method in ("sampling", "two_phase", "speedup"):
            result = engine.similarity("v1", "v2", method=method, num_walks=40)
            assert result.details["num_walks"] == 40

    def test_exact_prefix_accepted_by_two_phase_family_only(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=50, seed=3)
        for method in ("two_phase", "speedup"):
            result = engine.similarity("v1", "v2", method=method, exact_prefix=2)
            assert result.details["exact_prefix"] == 2
        with pytest.raises(InvalidParameterError, match="does not accept"):
            engine.similarity("v1", "v2", method="sampling", exact_prefix=2)


class TestBatchedBaseline:
    def test_batch_matches_per_pair_algorithm_exactly(self, paper_graph):
        """The batched shared-prefix stage is a cost change, not a result
        change: every score equals the per-pair baseline bit-for-bit."""
        engine = SimRankEngine(paper_graph, iterations=4, seed=3)
        pairs = list(combinations(paper_graph.vertices(), 2)) + [("v1", "v1")]
        batched = engine.similarity_many(pairs, method="baseline")
        for (u, v), result in zip(pairs, batched):
            direct = baseline_simrank(paper_graph, u, v, iterations=4)
            assert result.score == direct.score
            assert result.meeting_probabilities == direct.meeting_probabilities

    def test_prefix_work_shared_per_unique_endpoint(self, paper_graph):
        """q unique endpoints cost q single-source runs, however many pairs."""
        engine = SimRankEngine(paper_graph, iterations=3, seed=3)
        executor = executor_for("baseline")(engine.snapshot())
        pairs = list(combinations(["v1", "v2", "v3"], 2))
        executor.run_batch(pairs)
        assert len(executor._distributions) == 3  # not 2 * len(pairs)

    def test_max_states_override_forwarded(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=4, seed=3)
        result = engine.similarity("v1", "v2", method="baseline", max_states=7_000)
        assert result.details["max_states"] == 7_000


class TestBatchingNeverChangesAnswers:
    """Keyed randomness: one batched call == per-pair calls, for every method."""

    @pytest.mark.parametrize("method", METHODS)
    def test_batched_equals_per_pair(self, paper_graph, method):
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=80, seed=11)
        pairs = [("v1", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v3")]
        batched = engine.similarity_many(pairs, method=method)
        for (u, v), result in zip(pairs, batched):
            single = engine.similarity(u, v, method=method)
            assert result.score == single.score, (method, u, v)

    @pytest.mark.parametrize("method", ("sampling", "two_phase", "speedup"))
    def test_call_order_is_irrelevant(self, paper_graph, method):
        first = SimRankEngine(paper_graph, iterations=4, num_walks=60, seed=5)
        noisy = SimRankEngine(paper_graph, iterations=4, num_walks=60, seed=5)
        noisy.similarity("v4", "v5", method=method)  # would perturb a stateful RNG
        assert (
            first.similarity("v1", "v2", method=method).score
            == noisy.similarity("v1", "v2", method=method).score
        )


class TestTwoPhaseExecutor:
    def test_exact_prefix_matches_baseline_prefix(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=5, num_walks=50, seed=7)
        result = engine.similarity("v1", "v2", method="two_phase", exact_prefix=2)
        exact = baseline_simrank(paper_graph, "v1", "v2", iterations=5)
        assert (
            result.meeting_probabilities[:3] == exact.meeting_probabilities[:3]
        )

    def test_full_prefix_equals_baseline(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=10, seed=7)
        result = engine.similarity("v1", "v2", method="two_phase", exact_prefix=4)
        exact = baseline_simrank(paper_graph, "v1", "v2", iterations=4)
        assert result.score == pytest.approx(exact.score, abs=1e-12)

    def test_invalid_prefix_rejected(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3, num_walks=10, seed=7)
        with pytest.raises(InvalidParameterError, match="exact prefix"):
            engine.similarity("v1", "v2", method="two_phase", exact_prefix=4)

    def test_speedup_single_side_filter_overrides(self, paper_graph):
        """Overriding one filter side keeps the other side's snapshot
        default instead of crashing (regression) — and shared_filters
        reuses the u-side for both."""
        from repro.core.speedup import FilterVectors

        engine = SimRankEngine(paper_graph, iterations=3, num_walks=64, seed=5)
        custom = FilterVectors(paper_graph, 64, rng=3)
        u_only = engine.similarity("v1", "v2", method="speedup", filters=custom)
        v_only = engine.similarity("v1", "v2", method="speedup", filters_v=custom)
        shared = engine.similarity(
            "v1", "v2", method="speedup", shared_filters=True
        )
        for result in (u_only, v_only, shared):
            assert 0.0 <= result.score <= 1.0
        with pytest.raises(InvalidParameterError, match="same number"):
            engine.similarity(
                "v1",
                "v2",
                method="speedup",
                filters=FilterVectors(paper_graph, 32, rng=3),
            )

    def test_speedup_self_pair_uses_independent_sides(self, paper_graph):
        """A self-pair's two propagation sides come from independent filter
        sets, so its meeting estimates are not degenerately 1."""
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=200, seed=7)
        result = engine.similarity("v2", "v2", method="speedup")
        assert result.meeting_probabilities[0] == 1.0
        assert any(m < 1.0 for m in result.meeting_probabilities[1:])


class TestSerialWalkSource:
    """The one (serial, keyed) :class:`WalkSource` the engine and the
    service both resolve walk bundles through."""

    def test_bit_identical_to_sharded_sampler(self, paper_graph):
        """The engine's walk source and a service-side sampler implement one
        scheme: same (seed, shard_size) -> same keys and the same bundles,
        each the keyed sampler run on its endpoint's world keys."""
        csr = CSRGraph.from_uncertain(paper_graph)
        engine = SimRankEngine(paper_graph, iterations=4, seed=5, shard_size=16)
        source = engine.snapshot().walks
        sampler = ShardedWalkSampler(seed=5, shard_size=16)
        needs = [(0, False, 40), (1, False, 40), (1, True, 40)]
        resolved = source.resolve(csr, 4, needs)
        for vertex_index, twin, walks in needs:
            expected = sample_walk_matrix_keyed(
                csr,
                np.full(walks, vertex_index, dtype=np.int64),
                4,
                endpoint_world_keys(5, vertex_index, twin, walks, 16),
            )
            assert np.array_equal(resolved[(vertex_index, twin, walks)], expected)
            assert source.store_key(
                vertex_index, twin, 4, walks
            ) == sampler.store_key(vertex_index, twin, 4, walks)

    def test_store_round_trip_and_duplicate_needs(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        store = WalkBundleStore()
        source = WalkSource(ShardedWalkSampler(seed=5), store)
        first = source.resolve(csr, 3, [(0, False, 32), (0, False, 32)])
        assert len(first) == 1 and len(store) == 1
        again = source.resolve(csr, 3, [(0, False, 32)])
        assert again[(0, False, 32)] is first[(0, False, 32)]  # served, not resampled

    def test_invalid_shard_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            WalkSource(ShardedWalkSampler(seed=1, shard_size=0))


class TestCSRGraphView:
    def test_read_surface_matches_dict_graph(self, paper_graph):
        view = CSRGraphView(CSRGraph.from_uncertain(paper_graph))
        assert view.vertices() == paper_graph.vertices()
        assert view.num_vertices == paper_graph.num_vertices
        assert view.num_arcs == paper_graph.num_arcs
        for vertex in paper_graph.vertices():
            assert view.out_arcs(vertex) == paper_graph.out_arcs(vertex)
            assert view.out_neighbors(vertex) == paper_graph.out_neighbors(vertex)
        assert view.has_vertex("v1") and not view.has_vertex("ghost")
        assert view.has_arc("v1", "v2") == paper_graph.has_arc("v1", "v2")

    def test_view_pins_the_snapshot_not_the_graph(self, paper_graph):
        """Mutating the source graph never changes what the view reads —
        the property that makes exact methods epoch-safe."""
        view = CSRGraphView(CSRGraph.from_uncertain(paper_graph))
        before = dict(view.out_arcs("v1"))
        paper_graph.add_arc("v1", "v5", 0.9)
        assert view.out_arcs("v1") == before
        assert not view.has_arc("v1", "v5")

    def test_exact_method_on_pinned_view_ignores_later_mutations(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=3, seed=3)
        snapshot = engine.snapshot()
        executor = executor_for("baseline")(snapshot)
        expected = baseline_simrank(paper_graph, "v1", "v2", iterations=3).score
        paper_graph.add_arc("v5", "v1", 0.8)  # lands after the snapshot
        pinned = executor.run_batch([("v1", "v2")])[0].score
        assert pinned == expected


class TestEngineCachesDeterminism:
    def test_filter_pairs_are_pure_functions_of_seed_and_snapshot(self, paper_graph):
        one = SimRankEngine(paper_graph, num_walks=64, seed=9)
        two = SimRankEngine(paper_graph.copy(), num_walks=64, seed=9)
        assert np.array_equal(one.filters.choices, two.filters.choices)
        assert np.array_equal(one.filters_v.choices, two.filters_v.choices)
        assert not np.array_equal(one.filters.choices, one.filters_v.choices)

    def test_rebuild_really_redraws(self, paper_graph):
        engine = SimRankEngine(paper_graph, num_walks=64, seed=9)
        before = engine.filters
        rebuilt = engine.rebuild_filters()
        assert rebuilt is not before
        assert not np.array_equal(rebuilt.choices, before.choices)

    def test_snapshot_walk_source_persists_in_bundle_store(self, paper_graph):
        store = WalkBundleStore()
        engine = SimRankEngine(paper_graph, num_walks=50, seed=9, bundle_store=store)
        engine.similarity_many([("v1", "v2"), ("v2", "v3")], method="sampling")
        misses = store.stats.misses
        engine.similarity_many([("v1", "v2"), ("v2", "v3")], method="two_phase")
        assert store.stats.misses == misses  # SR-TS tail reuses the same bundles


class TestSpeedupTableStore:
    """The snapshot-scoped SR-SP table store: hits across batches, never
    stale, bypassed by explicit filters, and bit-identical either way."""

    PAIRS = [("v1", "v2"), ("v2", "v3"), ("v1", "v3"), ("v4", "v4")]

    @staticmethod
    def count_propagations(monkeypatch) -> list:
        calls: list = []
        original = executors.propagate_packed_tables

        def counted(source, steps, filters):
            calls.append(source)
            return original(source, steps, filters)

        monkeypatch.setattr(executors, "propagate_packed_tables", counted)
        return calls

    @staticmethod
    def meetings(results) -> list:
        return [tuple(result.meeting_probabilities) for result in results]

    @staticmethod
    def oracle(graph, pairs, filters_u, filters_v, steps) -> list:
        return [
            tuple(oracle_meetings(graph, u, v, steps, filters_u, filters_v))
            for u, v in pairs
        ]

    def test_repeated_batch_hits_store_bit_identically(self, paper_graph, monkeypatch):
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=200, seed=5)
        calls = self.count_propagations(monkeypatch)
        first = engine.similarity_many(self.PAIRS, method="speedup", exact_prefix=0)
        sides = {(u, 0) for u, _ in self.PAIRS} | {(v, 1) for _, v in self.PAIRS}
        assert len(calls) == len(sides)
        second = engine.similarity_many(self.PAIRS, method="speedup", exact_prefix=0)
        assert len(calls) == len(sides)  # every table came from the store
        stats = engine.caches.speedup_tables.cache_stats()
        assert stats["hits"] == stats["misses"] == len(sides)
        assert stats["bytes"] > 0
        assert self.meetings(second) == self.meetings(first)
        cold = SimRankEngine(paper_graph, iterations=4, num_walks=200, seed=5)
        assert self.meetings(first) == self.meetings(
            cold.similarity_many(self.PAIRS, method="speedup", exact_prefix=0)
        )
        assert self.meetings(first) == self.oracle(
            paper_graph, self.PAIRS, engine.filters, engine.filters_v, 4
        )

    def test_filter_rebuild_never_serves_stale_tables(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=200, seed=5)
        before = engine.similarity_many(self.PAIRS, method="speedup", exact_prefix=0)
        engine.caches.rebuild_filter_pair(200)
        after = engine.similarity_many(self.PAIRS, method="speedup", exact_prefix=0)
        assert self.meetings(after) != self.meetings(before)
        assert self.meetings(after) == self.oracle(
            paper_graph, self.PAIRS, engine.filters, engine.filters_v, 4
        )
        assert engine.caches.speedup_tables.cache_stats()["hits"] == 0

    @pytest.mark.parametrize(
        "override", ["filters", "filters_v", "shared_filters"]
    )
    def test_explicit_filters_bypass_store(self, paper_graph, override):
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=200, seed=5)
        explicit = FilterVectors(paper_graph, 200, rng=21)
        value = True if override == "shared_filters" else explicit
        for _ in range(2):
            results = engine.similarity_many(
                self.PAIRS, method="speedup", exact_prefix=0, **{override: value}
            )
        filters_u = explicit if override == "filters" else engine.filters
        filters_v = {
            "filters": engine.filters_v,
            "filters_v": explicit,
            "shared_filters": engine.filters,
        }[override]
        assert self.meetings(results) == self.oracle(
            paper_graph, self.PAIRS, filters_u, filters_v, 4
        )
        assert engine.caches.speedup_tables.cache_stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "bytes": 0
        }

    def test_mutation_uses_new_epoch_store(self, paper_graph):
        graph = paper_graph.copy()
        frozen = graph.copy()
        pairs = [("v1", "v2"), ("v2", "v3")]
        with SimilarityService(graph, iterations=4, num_walks=200, seed=5) as service:
            service.pair("v1", "v2", method="speedup")
            tenant = service.tenant()
            with tenant.pin_epoch() as lease:
                old_store = lease.snapshot.caches.speedup_tables
                service.mutate(MutationLog().add_edge("v1", "v2", 0.9))
                pinned = make_executor("speedup", lease.snapshot).run_batch(pairs)
            service.pair("v1", "v2", method="speedup")
            new_store = tenant.engine.caches.speedup_tables
            assert new_store is not old_store
            assert new_store.cache_stats()["misses"] > 0
            assert new_store.cache_stats()["hits"] == 0
            served = [service.pair(u, v, method="speedup") for u, v in pairs]
        standalone = SimRankEngine(frozen, iterations=4, num_walks=200, seed=5)
        assert [r.score for r in pinned] == [
            standalone.similarity(u, v, method="speedup").score for u, v in pairs
        ]
        graph_now = frozen.copy()
        graph_now.add_arc("v1", "v2", 0.9)
        current = SimRankEngine(graph_now, iterations=4, num_walks=200, seed=5)
        assert [r.score for r in served] == [
            current.similarity(u, v, method="speedup").score for u, v in pairs
        ]
        assert [r.score for r in served] != [r.score for r in pinned]

    def test_tiny_budget_evicts_and_answers_identically(self, paper_graph, monkeypatch):
        monkeypatch.setattr(executors, "SPEEDUP_TABLE_BUDGET_BYTES", 4096)
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=700, seed=5)
        first = engine.similarity_many(self.PAIRS, method="speedup", exact_prefix=0)
        second = engine.similarity_many(self.PAIRS, method="speedup", exact_prefix=0)
        store = engine.caches.speedup_tables
        assert store.budget_bytes == 4096
        assert store.cache_stats()["evictions"] > 0
        assert store.current_bytes <= 4096
        assert self.meetings(first) == self.meetings(second) == self.oracle(
            paper_graph, self.PAIRS, engine.filters, engine.filters_v, 4
        )

    def test_concurrent_readers_share_store_without_lost_updates(
        self, paper_graph, monkeypatch
    ):
        """More reader threads than cores hammer one snapshot's store under
        eviction pressure: every answer stays exact, and the counters and
        byte accounting lose no update."""
        monkeypatch.setattr(executors, "SPEEDUP_TABLE_BUDGET_BYTES", 2048)
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=300, seed=5)
        expected = self.meetings(
            SimRankEngine(paper_graph, iterations=4, num_walks=300, seed=5)
            .similarity_many(self.PAIRS, method="speedup", exact_prefix=0)
        )
        snapshot = engine.snapshot()
        lookups_per_batch = len(
            {(u, 0) for u, _ in self.PAIRS} | {(v, 1) for _, v in self.PAIRS}
        )
        threads, rounds = 6, 15
        failures: list = []

        def reader() -> None:
            for _ in range(rounds):
                results = make_executor("speedup", snapshot).run_batch(
                    self.PAIRS, {"exact_prefix": 0}
                )
                if self.meetings(results) != expected:
                    failures.append(results)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=reader) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        store = engine.caches.speedup_tables
        stats = store.cache_stats()
        assert stats["hits"] + stats["misses"] == threads * rounds * lookups_per_batch
        assert stats["evictions"] > 0
        assert stats["bytes"] == sum(value.nbytes for value in store._entries.values())
        assert stats["bytes"] <= 2048


class TestSpeedupLaneIdentity:
    """SR-SP answers through the engine, the service and the runner equal
    the bit-vector oracle on the same filters, bit for bit: self-pairs,
    top-k-shaped batches, one-sided and shared filter overrides."""

    @staticmethod
    def graph() -> UncertainGraph:
        return rmat_uncertain(60, 150, rng=8)

    @staticmethod
    def pairs(graph: UncertainGraph) -> list:
        vertices = graph.vertices()
        return (
            [(vertices[0], vertices[0]), (vertices[7], vertices[7])]
            + list(zip(vertices[:12], vertices[20:32]))
            + [(vertices[3], v) for v in vertices[:20]]
        )

    @pytest.mark.parametrize(
        "override", [None, "filters", "filters_v", "shared_filters"]
    )
    def test_engine_matches_oracle(self, override):
        graph = self.graph()
        engine = SimRankEngine(graph, iterations=5, num_walks=700, seed=4)
        explicit = FilterVectors(graph, 700, rng=9)
        overrides = {}
        if override is not None:
            overrides[override] = True if override == "shared_filters" else explicit
        filters_u = explicit if override == "filters" else engine.filters
        filters_v = {
            None: engine.filters_v,
            "filters": engine.filters_v,
            "filters_v": explicit,
            "shared_filters": engine.filters,
        }[override]
        pairs = self.pairs(graph)
        results = engine.similarity_many(
            pairs, method="speedup", exact_prefix=0, **overrides
        )
        for (u, v), result in zip(pairs, results):
            assert list(result.meeting_probabilities) == oracle_meetings(
                graph, u, v, 5, filters_u, filters_v
            ), (u, v)

    def test_service_and_runner_match_oracle(self):
        graph = self.graph()
        edges = [
            [u, v, probability]
            for u in graph.vertices()
            for v, probability in graph.out_arcs(u).items()
        ]
        pairs = self.pairs(graph)[::3]
        engine = SimRankEngine(graph, num_walks=700, seed=4)
        expected = engine.similarity_many(pairs, method="speedup")
        tail = engine.exact_prefix + 1
        for (u, v), result in zip(pairs, expected):
            oracle = oracle_meetings(
                graph, u, v, engine.iterations, engine.filters, engine.filters_v
            )
            assert list(result.meeting_probabilities[tail:]) == oracle[tail:]
        with SimilarityService(graph, num_walks=700, seed=4) as service:
            served = [service.pair(u, v, method="speedup") for u, v in pairs]
        assert [r.meeting_probabilities for r in served] == [
            r.meeting_probabilities for r in expected
        ]
        lines = [
            json.dumps(
                {
                    "op": "create_graph",
                    "graph": "g",
                    "vertices": graph.vertices(),
                    "edges": edges,
                    "params": {"num_walks": 700, "seed": 4},
                }
            )
        ] + [
            json.dumps(
                {"op": "pair", "graph": "g", "u": u, "v": v, "method": "speedup"}
            )
            for u, v in pairs
        ]
        stdout = io.StringIO()
        code = run(
            ["--graph", "example"],
            stdin=io.StringIO("\n".join(lines) + "\n"),
            stdout=stdout,
            stderr=io.StringIO(),
        )
        assert code == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [response["score"] for response in responses[1:]] == [
            result.score for result in expected
        ]
