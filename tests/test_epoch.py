"""Tests for epoch-pinned snapshots and the concurrent read/write service.

The acceptance stress test lives here: queries and mutation ingest
interleave across two tenants on a multi-worker read pool, and every single
answer must be bit-identical to a standalone service built at the graph
version the answer's epoch reports — plus the leak check that every retired
epoch is freed once its readers drain.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.batch_walks import ShardedWalkSampler, sample_walk_matrix_keyed
from repro.core.engine import SimRankEngine
from repro.core.executors import WalkSource
from repro.core.topk import rank_top_k, top_k_similar_pairs, top_k_similar_to
from repro.graph.csr import CSRGraph
from repro.graph.uncertain_graph import UncertainGraph, example_graph
from repro.service import (
    EpochManager,
    EngineSnapshot,
    GraphRegistry,
    GraphTenant,
    MutationLog,
    PairQuery,
    SimilarityService,
    TenantConfig,
    TopKVertexQuery,
    VersionedStoreView,
    WalkBundleStore,
)
from repro.utils.errors import InvalidParameterError

#: The read-pool size of the acceptance stress test (the CI stress step runs
#: this file's stress tests explicitly at this setting).
STRESS_READ_WORKERS = 4


def _snapshot(epoch_id: int = 0, version: int = 0) -> EngineSnapshot:
    """A minimal snapshot for manager-level tests (csr/caches unused)."""
    graph = example_graph()
    store = WalkBundleStore()
    token = ("test", version)
    store.sync_version(token)
    return EngineSnapshot(
        epoch_id=epoch_id,
        graph_version=version,
        csr=CSRGraph.from_uncertain(graph),
        caches=None,  # type: ignore[arg-type] - not exercised here
        decay=0.6,
        iterations=4,
        num_walks=100,
        walks=WalkSource(ShardedWalkSampler(0), VersionedStoreView(store, token)),
    )


class TestEpochManager:
    def test_pin_before_publish_rejected(self):
        with pytest.raises(InvalidParameterError):
            EpochManager().pin()

    def test_publish_assigns_monotone_ids(self):
        manager = EpochManager()
        first = manager.publish(_snapshot(version=1))
        second = manager.publish(_snapshot(version=2))
        assert (first.epoch_id, second.epoch_id) == (1, 2)
        assert manager.current.snapshot is second

    def test_unpinned_predecessor_freed_on_publish(self):
        manager = EpochManager()
        manager.publish(_snapshot(version=1))
        manager.publish(_snapshot(version=2))
        stats = manager.stats()
        assert stats["live"] == 1
        assert stats["freed"] == 1
        assert stats["current"] == 2

    def test_pinned_predecessor_survives_until_release(self):
        manager = EpochManager()
        manager.publish(_snapshot(version=1))
        lease = manager.pin()
        manager.publish(_snapshot(version=2))
        assert manager.stats()["live"] == 2  # retired epoch still pinned
        assert lease.snapshot.graph_version == 1  # lease view is stable
        lease.release()
        stats = manager.stats()
        assert stats["live"] == 1
        assert stats["pinned"] == 0
        assert stats["freed"] == 1

    def test_release_is_idempotent(self):
        manager = EpochManager()
        manager.publish(_snapshot(version=1))
        lease = manager.pin()
        lease.release()
        lease.release()
        assert manager.stats()["pinned"] == 0

    def test_context_manager_releases(self):
        manager = EpochManager()
        manager.publish(_snapshot(version=1))
        with manager.pin() as lease:
            assert lease.snapshot.graph_version == 1
            assert manager.stats()["pinned"] == 1
        assert manager.stats()["pinned"] == 0

    def test_many_concurrent_leases_accounted(self):
        manager = EpochManager()
        manager.publish(_snapshot(version=1))
        leases = [manager.pin() for _ in range(5)]
        manager.publish(_snapshot(version=2))
        assert manager.stats()["live"] == 2
        for lease in leases:
            lease.release()
        stats = manager.stats()
        assert stats["live"] == 1
        assert stats["pinned"] == 0
        assert stats["freed"] == 1


class TestVersionedStoreView:
    def test_current_view_reads_and_writes_through(self):
        store = WalkBundleStore()
        store.sync_version(("g", 1))
        view = VersionedStoreView(store, ("g", 1))
        bundle = np.zeros(4, dtype=np.int64)
        view.put("k", bundle)
        found, stale = view.lookup("k")
        assert found is bundle and stale is None
        assert view.current

    def test_stale_view_misses_and_drops_puts(self):
        store = WalkBundleStore()
        store.sync_version(("g", 1))
        view = VersionedStoreView(store, ("g", 1))
        view.put("k", np.zeros(4, dtype=np.int64))
        store.sync_version(("g", 2))  # the graph moved on
        fresh = np.full(4, 2, dtype=np.int64)
        store.put("k", fresh)  # the new version's entry under the same key
        assert not view.current
        assert view.lookup("k") is None  # never serves the new version's cache
        late = np.ones(4, dtype=np.int64)
        assert view.put("other", late) is late  # returned, not retained
        assert len(store) == 1 and not store.peek("other")

    def test_stale_get_counts_as_miss(self):
        store = WalkBundleStore()
        store.sync_version(("g", 1))
        view = VersionedStoreView(store, ("g", 1))
        store.sync_version(("g", 2))
        store.put("k", np.zeros(4, dtype=np.int64))  # the new version's entry
        assert view.lookup("k") is None
        assert store.stats.misses == 1 and store.stats.hits == 0


class TestTenantEpochs:
    def test_pin_publishes_initial_epoch_lazily(self):
        tenant = GraphTenant("t", example_graph(), TenantConfig(num_walks=50))
        assert tenant.epochs.current is None
        with tenant.pin_epoch() as lease:
            assert lease.snapshot.epoch_id == 1
            assert lease.snapshot.graph_version == tenant.graph.version
        assert tenant.epochs.stats()["live"] == 1

    def test_repeated_pins_share_one_epoch(self):
        tenant = GraphTenant("t", example_graph(), TenantConfig(num_walks=50))
        with tenant.pin_epoch() as first, tenant.pin_epoch() as second:
            assert first.snapshot is second.snapshot
        assert tenant.epochs.stats()["published"] == 1

    def test_apply_publishes_new_epoch_and_keeps_pinned_old(self):
        tenant = GraphTenant("t", example_graph(), TenantConfig(num_walks=50))
        lease = tenant.pin_epoch()
        old = lease.snapshot
        tenant.apply(MutationLog().add_edge("v5", "v1", 0.9))
        with tenant.pin_epoch() as fresh:
            assert fresh.snapshot.epoch_id == old.epoch_id + 1
            assert fresh.snapshot.graph_version > old.graph_version
            # The old lease still sees its own frozen CSR and store view.
            assert old.csr.num_arcs == 8
            assert fresh.snapshot.csr.num_arcs == 9
            assert not old.walks.store.current
            assert fresh.snapshot.walks.store.current
        assert tenant.epochs.stats()["live"] == 2
        lease.release()
        assert tenant.epochs.stats()["live"] == 1

    def test_direct_mutation_picked_up_by_next_pin(self):
        tenant = GraphTenant("t", example_graph(), TenantConfig(num_walks=50))
        with tenant.pin_epoch() as lease:
            first_version = lease.snapshot.graph_version
        tenant.graph.add_arc("v5", "v1", 0.4)  # bypasses apply()
        with tenant.pin_epoch() as lease:
            assert lease.snapshot.graph_version > first_version
            assert lease.snapshot.csr.num_arcs == 9

    def test_max_num_walks_validated(self):
        with pytest.raises(InvalidParameterError):
            GraphTenant("t", example_graph(), TenantConfig(max_num_walks=0))


class TestPerQueryNumWalks:
    def test_override_matches_tenant_configured_at_that_count(self, paper_graph):
        """A per-query override answers exactly like a tenant whose default
        walk count is the override (same seed → same keyed bundles)."""
        with SimilarityService(
            paper_graph, iterations=4, num_walks=400, seed=9
        ) as service:
            overridden = service.pair("v1", "v2", num_walks=120)
        with SimilarityService(
            paper_graph, iterations=4, num_walks=120, seed=9
        ) as service:
            configured = service.pair("v1", "v2")
        assert overridden.score == configured.score
        assert overridden.details["num_walks"] == 120

    def test_override_and_default_coexist_in_one_batch(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=4, num_walks=300, seed=9,
            batch_wait_seconds=0.1,
        ) as service:
            default = service.submit(PairQuery("v1", "v2"))
            small = service.submit(PairQuery("v1", "v2", num_walks=60))
            topk = service.submit(TopKVertexQuery("v1", 3, num_walks=60))
            default, small, topk = (
                future.result(timeout=30) for future in (default, small, topk)
            )
        assert default.details["num_walks"] == 300
        assert small.details["num_walks"] == 60
        assert len(topk) == 3
        # Every answer of the mixed-count batch equals a standalone engine
        # at that answer's walk count.
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=300, seed=9)
        assert default.score == engine.similarity("v1", "v2", method="sampling").score
        assert small.score == engine.similarity(
            "v1", "v2", method="sampling", num_walks=60
        ).score
        for vertex, score in topk:
            assert score == engine.similarity(
                "v1", vertex, method="sampling", num_walks=60
            ).score

    def test_cap_rejects_oversized_override_only(self, paper_graph):
        with SimilarityService(
            paper_graph, iterations=4, num_walks=100, seed=9, max_num_walks=200
        ) as service:
            assert service.pair("v1", "v2", num_walks=200).score >= 0.0
            with pytest.raises(InvalidParameterError, match="max_num_walks"):
                service.pair("v1", "v2", num_walks=201)
            # the worker survives and keeps answering
            assert service.pair("v1", "v2").score >= 0.0

    def test_cap_per_tenant_through_create_graph(self, paper_graph):
        with SimilarityService(paper_graph, num_walks=100, seed=9) as service:
            service.create_graph(
                "capped", example_graph(), num_walks=100, max_num_walks=150
            )
            assert (
                service.pair("v1", "v2", graph="capped", num_walks=150).score >= 0.0
            )
            with pytest.raises(InvalidParameterError, match="capped"):
                service.pair("v1", "v2", graph="capped", num_walks=151)
            # the uncapped default tenant is unaffected
            assert service.pair("v1", "v2", num_walks=151).score >= 0.0

    def test_invalid_override_rejected(self, paper_graph):
        with SimilarityService(paper_graph, num_walks=100, seed=9) as service:
            with pytest.raises(InvalidParameterError):
                service.pair("v1", "v2", num_walks=0)

    def test_speedup_override_builds_matching_filters(self, paper_graph):
        """The override must actually drive SR-SP: an engine with the
        default at 300 answers a num_walks=64 speedup query exactly like an
        engine configured at 64 (same seed → same filter draws)."""
        from repro.core.engine import SimRankEngine

        overridden = SimRankEngine(paper_graph, num_walks=300, seed=5).similarity(
            "v1", "v2", method="speedup", num_walks=64
        )
        configured = SimRankEngine(paper_graph, num_walks=64, seed=5).similarity(
            "v1", "v2", method="speedup"
        )
        assert overridden.score == configured.score
        assert overridden.details["num_walks"] == 64

    def test_speedup_override_through_service_fallback(self, paper_graph):
        with SimilarityService(
            paper_graph, num_walks=300, seed=5, max_num_walks=300
        ) as service:
            result = service.pair("v1", "v2", method="speedup", num_walks=64)
        assert result.details["num_walks"] == 64


@pytest.mark.watchdog(180)
class TestReadPool:
    def test_results_bit_identical_across_read_worker_counts(self, paper_graph):
        """Acceptance pin: read_workers never affects any answer."""
        outcomes = []
        for read_workers in (1, STRESS_READ_WORKERS):
            with SimilarityService(
                paper_graph,
                iterations=4,
                num_walks=300,
                seed=17,
                read_workers=read_workers,
            ) as service:
                futures = [
                    service.submit(PairQuery("v1", "v2")),
                    service.submit(PairQuery("v2", "v3")),
                    service.submit(TopKVertexQuery("v1", 3)),
                ]
                outcomes.append([future.result(timeout=30) for future in futures])
        assert outcomes[0][0].score == outcomes[1][0].score
        assert outcomes[0][1].score == outcomes[1][1].score
        assert outcomes[0][2] == outcomes[1][2]

    def test_concurrent_submitters_on_read_pool(self, paper_graph):
        """Many submitting threads against a multi-worker pool: every answer
        equals the single-worker answer for the same query."""
        with SimilarityService(
            paper_graph, iterations=4, num_walks=200, seed=3
        ) as reference_service:
            expected = {
                (u, v): reference_service.pair(u, v).score
                for u in paper_graph.vertices()
                for v in paper_graph.vertices()
            }
        failures: list = []

        def hammer(service: SimilarityService, thread_index: int) -> None:
            vertices = paper_graph.vertices()
            for step in range(40):
                u = vertices[(thread_index + step) % len(vertices)]
                v = vertices[(thread_index * 3 + step) % len(vertices)]
                result = service.pair(u, v)
                if result.score != expected[(u, v)]:
                    failures.append((u, v, result.score, expected[(u, v)]))

        with SimilarityService(
            paper_graph,
            iterations=4,
            num_walks=200,
            seed=3,
            read_workers=STRESS_READ_WORKERS,
        ) as service:
            threads = [
                threading.Thread(target=hammer, args=(service, index))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert failures == []

    def test_invalid_read_workers_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            SimilarityService(paper_graph, read_workers=0)

    def test_service_stats_surface_epochs_and_pool(self, paper_graph):
        with SimilarityService(
            paper_graph, num_walks=100, seed=1, read_workers=2
        ) as service:
            service.pair("v1", "v2")
            stats = service.service_stats()
        assert stats["read_workers"] == 2
        epochs = stats["tenants"]["default"]["epochs"]
        assert epochs["published"] >= 1
        assert epochs["live"] == 1


def _precompute_states(graph: UncertainGraph, logs: list) -> dict:
    """Expected pair scores keyed by the graph version each log produces.

    Version deltas are a pure function of the op sequence and the pre-state
    structure, so replaying the same logs on a copy reproduces the *relative*
    version bumps; anchoring at the live graph's current version maps them
    onto the versions the service's epochs will report.
    """
    replica = graph.copy()
    offset = graph.version - replica.version
    states = {}

    def record() -> None:
        frozen = replica.copy()
        states[replica.version + offset] = frozen

    record()
    for log in logs:
        log.apply_to(replica)
        record()
    return states


def _expected_scores(states: dict, pair, num_walks: int, seed: int) -> dict:
    """Standalone-service score of ``pair`` at every recorded graph version."""
    expected = {}
    for version, frozen in states.items():
        with SimilarityService(
            frozen.copy(), iterations=4, num_walks=num_walks, seed=seed
        ) as standalone:
            expected[version] = standalone.pair(*pair).score
    return expected


@pytest.mark.watchdog(180)
class TestConcurrentIngestStress:
    def test_stress_interleaved_mutations_and_queries_bit_identical(self):
        """Acceptance: 2 tenants, concurrent mutate() + queries on a
        read_workers=4 pool; every answer is bit-identical to a standalone
        engine at the graph version its epoch reports, and no epoch leaks."""
        num_walks = 80
        rounds = 5
        seeds = {"a": 11, "b": 23}
        graphs = {name: example_graph() for name in seeds}
        logs = {
            name: [
                MutationLog().add_edge(
                    "v4", f"ingest-{name}-{index}", 0.3 + 0.1 * (index % 5)
                )
                for index in range(rounds)
            ]
            for name in seeds
        }
        expected = {
            name: _expected_scores(
                _precompute_states(graphs[name], logs[name]),
                ("v1", "v2"),
                num_walks,
                seeds[name],
            )
            for name in seeds
        }

        registry = GraphRegistry()
        for name, seed in seeds.items():
            registry.create(name, graphs[name], num_walks=num_walks,
                            iterations=4, seed=seed)
        answers: list = []
        answers_lock = threading.Lock()
        stop = threading.Event()

        def query_loop(service: SimilarityService, name: str) -> None:
            while not stop.is_set():
                result = service.pair("v1", "v2", graph=name)
                with answers_lock:
                    answers.append(
                        (name, result.details["graph_version"], result.score)
                    )

        with SimilarityService(
            registry=registry,
            default_graph="a",
            read_workers=STRESS_READ_WORKERS,
            batch_wait_seconds=0.0005,
        ) as service:
            threads = [
                threading.Thread(target=query_loop, args=(service, name))
                for name in seeds
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            try:
                for index in range(rounds):
                    for name in seeds:  # interleave ingest across tenants
                        report = service.mutate(logs[name][index], graph=name)
                        assert report.incremental
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            # Post-drain queries must land on the final version.
            final = {name: service.pair("v1", "v2", graph=name) for name in seeds}
        tenants = {name: registry.get(name) for name in seeds}
        registry.close()

        assert len(answers) > 0
        for name, version, score in answers:
            assert version in expected[name], (name, version)
            assert score == expected[name][version], (name, version)
        for name, result in final.items():
            last_version = max(expected[name])
            assert result.details["graph_version"] == last_version
            assert result.score == expected[name][last_version]

        # Leak check: all retired epochs freed once their readers drained.
        for name in seeds:
            stats = tenants[name].epochs.stats()
            assert stats["live"] == 1, (name, stats)
            assert stats["pinned"] == 0, (name, stats)
            assert stats["freed"] == stats["published"] - 1, (name, stats)

    def test_stress_trace_attribution_under_ingest(self):
        """Tracing on, read_workers=4, queries racing sustained ingest: every
        response's trace id is unique, every emitted span belongs to the
        trace of exactly one query (span attribution travels with the work
        item, never a thread), and each trace's top-level spans fit inside
        its own reported total."""
        from repro.obs import Observability

        events: list = []
        events_lock = threading.Lock()

        def sink(event: dict) -> None:
            with events_lock:
                events.append(event)

        obs = Observability(tracing=True, trace_sink=sink)
        logs = [
            MutationLog().add_edge("v4", f"ingest-{index}", 0.3 + 0.1 * (index % 5))
            for index in range(4)
        ]
        with SimilarityService(
            example_graph(),
            num_walks=60,
            seed=7,
            read_workers=STRESS_READ_WORKERS,
            batch_wait_seconds=0.0005,
            obs=obs,
        ) as service:
            futures = []
            for log in logs:
                futures.extend(
                    service.submit(PairQuery("v1", "v2")) for _ in range(3)
                )
                futures.append(service.submit(TopKVertexQuery("v2", 3)))
                service.submit_mutations(log)
            results = [future.result() for future in futures]
        with events_lock:
            collected = list(events)

        closings = [e for e in collected if e["type"] == "trace"]
        query_closings = [c for c in closings if c["op"] != "Mutation"]
        trace_ids = [c["trace"] for c in query_closings]
        assert len(trace_ids) == len(set(trace_ids)) == len(results)
        response_ids = [
            r.details["trace_id"] if hasattr(r, "details") else r.trace_id
            for r in results
        ]
        assert sorted(response_ids) == sorted(trace_ids)
        assert len([c for c in closings if c["op"] == "Mutation"]) == len(logs)

        totals = {c["trace"]: c["total_ms"] for c in closings}
        spans_by_trace: dict = {}
        for event in collected:
            if event["type"] == "span":
                spans_by_trace.setdefault(event["trace"], []).append(event)
        for trace_id, spans in spans_by_trace.items():
            ids = [s["id"] for s in spans]
            assert len(ids) == len(set(ids)), trace_id
            top_level = [s for s in spans if s["parent"] is None]
            assert sum(s["dur_ms"] for s in top_level) <= totals[trace_id] + 0.05
        # Queries parked behind an in-flight mutation record the wait.
        span_names = {e["name"] for e in collected if e["type"] == "span"}
        assert "barrier_wait" in span_names

    def test_cancelled_mutation_does_not_strand_later_queries(self):
        """A client-cancelled mutation Future is still an ingest barrier for
        later queries; the barrier wait must treat the cancellation as
        'done' (CancelledError is a BaseException) instead of letting it
        kill the read task and strand every query behind it."""
        log = MutationLog()
        for index in range(300):
            log.add_edge("v1", f"bulk-{index}", 0.5)
        with SimilarityService(
            example_graph(),
            num_walks=60,
            seed=1,
            batch_wait_seconds=0.0005,
            verify_mutations=True,  # slow apply: the barrier stays busy
        ) as service:
            before = service.pair("v1", "v2")
            pending = service.submit_mutations(log)
            waiting = service.submit(PairQuery("v1", "v2"))
            # Let the dispatcher park the query's read task on the barrier,
            # then cancel while the writer is (usually) mid-apply.  Both
            # race outcomes must leave the query answerable.
            time.sleep(0.002)
            pending.cancel()
            after = waiting.result(timeout=30)
        # Submission is commitment: the writer applies the log regardless of
        # the detached caller, and the later query sees the mutated graph.
        assert after.details["graph_version"] > before.details["graph_version"]

    def test_stress_queries_overlap_large_ingest(self):
        """A deliberately slow (verified) mutation on one tenant must not
        change what another tenant's concurrent queries return."""
        registry = GraphRegistry()
        registry.create("ingest", example_graph(), num_walks=60, seed=1)
        registry.create("serve", example_graph(), num_walks=60, seed=2)
        big_log = MutationLog()
        for index in range(120):
            big_log.add_edge("v1", f"bulk-{index}", 0.5)
        with SimilarityService(
            registry=registry,
            default_graph="serve",
            read_workers=STRESS_READ_WORKERS,
            verify_mutations=True,  # slows the apply, widening the window
            batch_wait_seconds=0.0005,
        ) as service:
            baseline = service.pair("v1", "v2", graph="serve")
            mutation = service.submit_mutations(big_log, graph="ingest")
            during = [
                service.pair("v1", "v2", graph="serve") for _ in range(20)
            ]
            report = mutation.result(timeout=60)
            assert report.ops == 120
            for result in during:
                assert result.score == baseline.score
                assert (
                    result.details["graph_version"]
                    == baseline.details["graph_version"]
                )
        registry.close()

    def test_other_tenant_answers_while_apply_is_blocked(self):
        """Readers never wait on ingest: while one tenant's apply is held
        mid-flight, another tenant's query answers at once from its pinned
        epoch, and only the mutated tenant's later queries park on the
        per-tenant barrier."""
        registry = GraphRegistry()
        registry.create("ingest", example_graph(), num_walks=60, seed=1)
        registry.create("serve", example_graph(), num_walks=60, seed=2)
        tenant = registry.get("ingest")
        original_apply = tenant.apply
        entered = threading.Event()
        release = threading.Event()

        def blocked_apply(log, verify=False):
            entered.set()
            release.wait()
            return original_apply(log, verify=verify)

        tenant.apply = blocked_apply
        with SimilarityService(
            registry=registry,
            default_graph="serve",
            read_workers=STRESS_READ_WORKERS,
            batch_wait_seconds=0.0005,
        ) as service:
            before_serve = service.pair("v1", "v2", graph="serve")
            before_ingest = service.pair("v1", "v2", graph="ingest")
            try:
                mutation = service.submit_mutations(
                    MutationLog().add_edge("v1", "blocked", 0.5), graph="ingest"
                )
                assert entered.wait(timeout=5)
                parked = service.submit(PairQuery("v1", "v2", graph="ingest"))
                served = service.submit(
                    PairQuery("v1", "v2", graph="serve")
                ).result(timeout=5)
                assert served.score == before_serve.score
                assert (
                    served.details["graph_version"]
                    == before_serve.details["graph_version"]
                )
                time.sleep(0.05)
                assert not parked.done()
            finally:
                release.set()
            after = parked.result(timeout=30)
            assert mutation.result(timeout=30).ops == 1
            assert (
                after.details["graph_version"]
                > before_ingest.details["graph_version"]
            )
        stats = tenant.epochs.stats()
        registry.close()
        assert stats["live"] == 1, stats
        assert stats["pinned"] == 0, stats


@pytest.mark.watchdog(180)
class TestExactMethodsThroughService:
    """Satellite acceptance: ``two_phase`` and ``speedup`` answers through
    the service (read_workers=4, under concurrent ingest) are bit-identical
    to a standalone :class:`SimRankEngine` at the pinned graph version, for
    all three query types.  The executors run the exact stages on the pinned
    CSR view and key all sampled randomness, so no method serializes with
    ingest anymore."""

    METHODS_UNDER_TEST = ("two_phase", "speedup")
    CANDIDATES = ("v2", "v3", "v4")
    PAIRS = (("v1", "v2"), ("v2", "v3"))

    def _expected_for(self, frozen: UncertainGraph, num_walks: int, seed: int) -> dict:
        """Standalone-engine answers for every method and query type."""
        engine = SimRankEngine(
            frozen.copy(), iterations=4, num_walks=num_walks, seed=seed
        )
        expected: dict = {}
        for method in self.METHODS_UNDER_TEST:
            pair_score = engine.similarity("v1", "v2", method=method).score
            vertex_scores = [
                engine.similarity("v1", candidate, method=method).score
                for candidate in self.CANDIDATES
            ]
            top_vertices = tuple(
                (self.CANDIDATES[index], vertex_scores[index])
                for index in rank_top_k(2, vertex_scores)
            )
            pair_scores = [
                engine.similarity(u, v, method=method).score for u, v in self.PAIRS
            ]
            top_pairs = tuple(
                (self.PAIRS[index][0], self.PAIRS[index][1], pair_scores[index])
                for index in rank_top_k(2, pair_scores)
            )
            expected[method] = {
                "pair": pair_score,
                "topk_vertex": top_vertices,
                "topk_pairs": top_pairs,
            }
        return expected

    def test_bit_identity_under_concurrent_ingest(self):
        num_walks = 60
        rounds = 3
        seed = 19
        graph = example_graph()
        logs = [
            MutationLog().add_edge("v4", f"ingest-{index}", 0.3 + 0.1 * index)
            for index in range(rounds)
        ]
        expected = {
            version: self._expected_for(frozen, num_walks, seed)
            for version, frozen in _precompute_states(graph, logs).items()
        }

        answers: list = []
        answers_lock = threading.Lock()
        stop = threading.Event()

        def query_loop(service: SimilarityService, method: str) -> None:
            while not stop.is_set():
                pair = service.pair("v1", "v2", method=method)
                top_vertices = service.top_k_for_vertex(
                    "v1", 2, candidates=self.CANDIDATES, method=method
                )
                top_pairs = service.top_k_pairs(
                    2, candidate_pairs=self.PAIRS, method=method
                )
                with answers_lock:
                    answers.append(
                        (method, "pair", pair.details["graph_version"], pair.score)
                    )
                    answers.append(
                        (
                            method,
                            "topk_vertex",
                            top_vertices.graph_version,
                            tuple(top_vertices),
                        )
                    )
                    answers.append(
                        (
                            method,
                            "topk_pairs",
                            top_pairs.graph_version,
                            tuple(top_pairs),
                        )
                    )

        with SimilarityService(
            graph,
            iterations=4,
            num_walks=num_walks,
            seed=seed,
            read_workers=STRESS_READ_WORKERS,
            batch_wait_seconds=0.0005,
        ) as service:
            threads = [
                threading.Thread(target=query_loop, args=(service, method))
                for method in self.METHODS_UNDER_TEST
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            try:
                for log in logs:
                    report = service.mutate(log)
                    assert report.incremental
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            final = {
                method: service.pair("v1", "v2", method=method)
                for method in self.METHODS_UNDER_TEST
            }
            tenant_stats = service.tenant().epochs.stats()

        assert len(answers) > 0
        seen_kinds = {(method, kind) for method, kind, _, _ in answers}
        for method in self.METHODS_UNDER_TEST:
            for kind in ("pair", "topk_vertex", "topk_pairs"):
                assert (method, kind) in seen_kinds
        for method, kind, version, payload in answers:
            assert version in expected, (method, kind, version)
            assert payload == expected[version][method][kind], (method, kind, version)
        last_version = max(expected)
        for method, result in final.items():
            assert result.details["graph_version"] == last_version
            assert result.score == expected[last_version][method]["pair"]

        # Leak check: all retired epochs freed once their readers drained.
        assert tenant_stats["live"] == 1, tenant_stats
        assert tenant_stats["pinned"] == 0, tenant_stats

    def test_baseline_through_service_is_epoch_pinned_too(self):
        """The exact baseline answers from the pinned snapshot — a query
        racing a mutation reports the graph version its score belongs to."""
        graph = example_graph()
        frozen = graph.copy()
        with SimilarityService(graph, iterations=4, seed=7) as service:
            before = service.pair("v1", "v2", method="baseline")
            service.mutate(MutationLog().add_edge("v5", "v1", 0.9))
            after = service.pair("v1", "v2", method="baseline")
        expected_before = SimRankEngine(frozen.copy(), iterations=4).similarity(
            "v1", "v2", method="baseline"
        )
        mutated = frozen.copy()
        mutated.add_arc("v5", "v1", 0.9)
        expected_after = SimRankEngine(mutated, iterations=4).similarity(
            "v1", "v2", method="baseline"
        )
        assert before.score == expected_before.score
        assert after.score == expected_after.score
        assert after.details["epoch"] == before.details["epoch"] + 1
        assert after.details["graph_version"] > before.details["graph_version"]

    def test_uniform_override_rejection_through_service(self):
        """Satellite: num_walks on baseline is rejected with a clear error
        naming the accepted overrides — never silently ignored — and the
        worker keeps serving."""
        with SimilarityService(example_graph(), num_walks=50, seed=1) as service:
            with pytest.raises(
                InvalidParameterError, match="does not accept.*num_walks"
            ):
                service.pair("v1", "v2", method="baseline", num_walks=25)
            with pytest.raises(
                InvalidParameterError, match="does not accept.*num_walks"
            ):
                service.top_k_for_vertex("v1", 2, method="baseline", num_walks=25)
            # sampled methods still admit the same override
            assert (
                service.pair("v1", "v2", method="two_phase", num_walks=25).details[
                    "num_walks"
                ]
                == 25
            )
            assert service.pair("v1", "v2", method="baseline").score >= 0.0


class TestRunnerEpochSurface:
    def _run(self, lines, *extra_args):
        import io
        import json

        from repro.service.runner import run

        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        code = run(
            ["--graph", "example", "--seed", "7", "--num-walks", "200", *extra_args],
            stdin=stdin,
            stdout=stdout,
            stderr=stderr,
        )
        return code, [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_pair_responses_carry_epoch_and_version(self):
        code, responses = self._run(
            [
                '{"op": "pair", "u": "v1", "v": "v2"}',
                '{"op": "mutate", "graph": "default", "ops": ['
                '{"op": "add_edge", "u": "v5", "v": "v1", "probability": 0.9}]}',
                '{"op": "pair", "u": "v1", "v": "v2"}',
            ],
            "--read-workers",
            "2",
        )
        assert code == 0
        before, report, after = responses
        assert before["epoch"] == 1
        assert after["epoch"] == 2
        assert after["graph_version"] == report["version"]
        assert after["graph_version"] > before["graph_version"]

    def test_every_method_and_query_type_carries_epoch(self):
        """Satellite: JSONL responses for non-sampling queries (and for the
        top-k query types) carry epoch / graph_version like sampling pair
        responses always did."""
        lines = [
            '{"op": "pair", "u": "v1", "v": "v2", "method": "%s"}' % method
            for method in ("baseline", "sampling", "two_phase", "speedup")
        ] + [
            '{"op": "top_k", "query": "v1", "k": 2, "method": "baseline"}',
            '{"op": "top_k_pairs", "k": 2, "pairs": [["v1", "v2"], ["v2", "v3"]],'
            ' "method": "two_phase"}',
            '{"op": "mutate", "graph": "default", "ops": ['
            '{"op": "add_edge", "u": "v5", "v": "v1", "probability": 0.9}]}',
            '{"op": "pair", "u": "v1", "v": "v2", "method": "baseline"}',
        ]
        code, responses = self._run(lines, "--read-workers", "2")
        assert code == 0
        for response in responses[:6]:
            assert response["epoch"] == 1, response
            assert "graph_version" in response, response
        report, after = responses[6], responses[7]
        assert after["epoch"] == 2
        assert after["graph_version"] == report["version"]

    def test_baseline_num_walks_override_rejected(self):
        code, responses = self._run(
            [
                '{"op": "pair", "u": "v1", "v": "v2", "method": "baseline",'
                ' "num_walks": 50}',
                '{"op": "pair", "u": "v1", "v": "v2", "method": "baseline"}',
            ]
        )
        assert code == 0
        assert "does not accept" in responses[0]["error"]
        assert "num_walks" in responses[0]["error"]
        assert 0.0 <= responses[1]["score"] <= 1.0

    def test_num_walks_override_and_cap(self):
        code, responses = self._run(
            [
                '{"op": "pair", "u": "v1", "v": "v2", "num_walks": 100}',
                '{"op": "pair", "u": "v1", "v": "v2", "num_walks": 4000}',
            ],
            "--max-num-walks",
            "500",
        )
        assert code == 0
        assert 0.0 <= responses[0]["score"] <= 1.0
        assert "max_num_walks" in responses[1]["error"]

    def test_stats_surface_epochs_and_pool(self):
        code, responses = self._run(
            ['{"op": "pair", "u": "v1", "v": "v2"}', '{"op": "stats"}'],
            "--read-workers",
            "3",
        )
        assert code == 0
        stats = responses[1]["stats"]
        assert stats["read_workers"] == 3
        epochs = stats["tenants"]["default"]["epochs"]
        assert epochs == {
            "current": 1,
            "current_version": epochs["current_version"],
            "published": 1,
            "freed": 0,
            "live": 1,
            "max_live": 1,
            "pinned": 0,
        }

    def test_deterministic_across_runs_with_read_pool(self):
        lines = [
            '{"op": "pair", "u": "v1", "v": "v2"}',
            '{"op": "mutate", "graph": "default", "ops": ['
            '{"op": "update_probability", "u": "v1", "v": "v3", "probability": 0.4}]}',
            '{"op": "pair", "u": "v1", "v": "v2", "num_walks": 150}',
        ]
        first = self._run(lines, "--read-workers", "4")
        second = self._run(lines, "--read-workers", "4")
        third = self._run(lines)  # read-pool size never affects answers
        assert first == second == third


class TestChunkHeuristicIdentity:
    def test_chunk_rows_never_affects_walks(self, paper_graph):
        """Chunking is evaluation granularity only: any chunk_rows override
        yields the byte-identical walk matrix."""
        csr = CSRGraph.from_uncertain(paper_graph)
        rng = np.random.default_rng(5)
        sources = rng.integers(0, csr.num_vertices, size=5000).astype(np.int64)
        keys = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
        reference = sample_walk_matrix_keyed(csr, sources, 4, keys, chunk_rows=1)
        for chunk_rows in (7, 640, 5000, None):
            walks = sample_walk_matrix_keyed(
                csr, sources, 4, keys, chunk_rows=chunk_rows
            )
            assert np.array_equal(walks, reference), chunk_rows

    def test_invalid_chunk_rows_rejected(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        with pytest.raises(InvalidParameterError):
            sample_walk_matrix_keyed(
                csr,
                np.zeros(3, dtype=np.int64),
                2,
                np.zeros(3, dtype=np.uint64),
                chunk_rows=0,
            )


class TestIndexedTopKThroughService:
    """The walk-fingerprint index on the service path: identical answers to
    the standalone engine scan, prune provenance on results and tenant
    stats, and the scan for thin candidate slices."""

    def test_indexed_matches_standalone_engine_scan(self):
        with SimilarityService(example_graph(), num_walks=200, seed=9) as service:
            top_vertex = service.top_k_for_vertex("v1", 3, method="sampling")
            top_pairs = service.top_k_pairs(3, method="sampling")
        assert top_vertex.candidates_total is not None
        assert top_pairs.candidates_total is not None
        engine = SimRankEngine(example_graph(), num_walks=200, seed=9)
        assert list(top_vertex) == top_k_similar_to(
            engine, "v1", 3, method="sampling", use_index=False
        )
        assert list(top_pairs) == top_k_similar_pairs(
            engine, 3, method="sampling", use_index=False
        )

    def test_prune_counters_surface_on_results_and_stats(self):
        with SimilarityService(
            example_graph(), num_walks=200, seed=9
        ) as service:
            top = service.top_k_for_vertex("v1", 3, method="sampling")
            stats = service.tenant().topk_index_stats()
        assert top.candidates_total is not None
        assert top.candidates_rescored is not None
        assert 0 < top.candidates_rescored <= top.candidates_total
        assert stats["usable"] > 0
        assert stats["candidates_rescored"] == top.candidates_rescored
        assert stats["store"]["entries"] > 0

    def test_thin_candidate_query_is_scanned(self):
        """A candidate slice under half the graph is cheaper to scan than to
        index: no index lookup, and the answer carries no prune counters."""
        with SimilarityService(
            example_graph(), num_walks=100, seed=9
        ) as service:
            top = service.top_k_for_vertex(
                "v1", 2, candidates=["v2"], method="sampling"
            )
            stats = service.service_stats()
        assert top.candidates_total is None
        assert top.candidates_rescored is None
        assert stats["tenants"]["default"]["topk_index"]["lookups"] == 0
        assert stats["tenants"]["default"]["topk_index"]["usable"] == 0
        engine = SimRankEngine(example_graph(), num_walks=100, seed=9)
        assert list(top) == top_k_similar_to(
            engine, "v1", 2, candidates=["v2"], method="sampling", use_index=False
        )

    def test_indexed_identity_survives_ingest(self):
        """Indexed answers under mutation ingest match a fresh no-index
        service rebuilt at every published graph version."""
        logs = [
            MutationLog().add_edge("v4", f"w-{index}", 0.4 + 0.1 * index)
            for index in range(2)
        ]
        observed = []
        graph = example_graph()
        with SimilarityService(graph, num_walks=150, seed=21) as service:
            top = service.top_k_for_vertex("v1", 3, method="sampling")
            observed.append((top.graph_version, tuple(top)))
            for log in logs:
                service.mutate(log)
                top = service.top_k_for_vertex("v1", 3, method="sampling")
                observed.append((top.graph_version, tuple(top)))

        # Every observed answer must equal a scratch engine's un-indexed
        # scan at the graph state its version reports.
        for round_number, (version, ranking) in enumerate(observed):
            frozen = example_graph()
            for log in logs[:round_number]:
                log.apply_to(frozen)
            engine = SimRankEngine(frozen, num_walks=150, seed=21)
            scan = top_k_similar_to(engine, "v1", 3, method="sampling")
            assert tuple(scan) == ranking, f"version {version}"
        assert len({version for version, _ in observed}) == len(observed)
