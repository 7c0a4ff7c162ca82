"""Mutation-local walk repair: carried bundles equal fresh ones.

A walk is a pure function of its world key and of the out-rows it leaves,
so a tenant's bundle store survives a mutation: a cached bundle is repaired
on its first lookup at the new version by resampling only the walks that
left a dirtied vertex.  The differential test here drives a tenant through
random mutation logs (adds, removes, re-weights, new vertices) and checks
after every apply that each cached bundle — twin bundles and two walk counts
included — is bit-identical to a fresh sample on that version's CSR, and
that a reader pinned to the previous epoch across the apply still matches a
fresh sample at its own version; a second one checks that the top-k index's
walk lanes, rebuilt each epoch from the carried store, equal a fresh
service's.  The stress test repeats the check through
a ``read_workers=4`` service under concurrent ingest (the CI stress step
runs this file at that setting).
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.batch_walks import (
    ShardedWalkSampler,
    bundle_dtype,
    sample_walk_matrix_keyed,
)
from repro.core.bundle_store import VersionedStoreView, WalkBundleStore, stale_rows
from repro.core.engine import SimRankEngine
from repro.core.topk_index import snapshot_index
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_uncertain
from repro.graph.uncertain_graph import UncertainGraph
from repro.service import GraphRegistry, GraphTenant, MutationLog, SimilarityService
from repro.service.tenancy import TenantConfig

#: Read-pool size of the repair stress test (matches the epoch stress tests).
STRESS_READ_WORKERS = 4

LENGTH = 5
SHARD = 16
SEED = 7


def _graph(seed: int = 3) -> UncertainGraph:
    return rmat_uncertain(32, 96, prob_low=0.2, rng=np.random.default_rng(seed))


def _random_log(rng: np.random.Generator, graph: UncertainGraph, fresh: list) -> MutationLog:
    """1-4 ops mixing add, remove, re-weight and a brand-new vertex."""
    log = MutationLog()
    replica = graph.copy()
    vertices = replica.vertices()
    for _ in range(int(rng.integers(1, 5))):
        kind = rng.choice(["add", "remove", "update", "new"])
        arcs = [(u, v) for u, v, _ in replica.arcs()]
        if kind in ("remove", "update") and arcs:
            u, v = arcs[int(rng.integers(len(arcs)))]
            if kind == "remove":
                log.remove_edge(u, v)
                replica.remove_arc(u, v)
            else:
                probability = float(rng.uniform(0.1, 1.0))
                log.update_probability(u, v, probability)
                replica.add_arc(u, v, probability)
        elif kind == "new":
            label = f"new-{len(fresh)}"
            fresh.append(label)
            anchor = vertices[int(rng.integers(len(vertices)))]
            u, v = (anchor, label) if rng.random() < 0.5 else (label, anchor)
            probability = float(rng.uniform(0.1, 1.0))
            log.add_edge(u, v, probability)
            replica.add_arc(u, v, probability)
        else:
            u, v = (vertices[int(i)] for i in rng.integers(len(vertices), size=2))
            if replica.has_arc(u, v):
                continue
            probability = float(rng.uniform(0.1, 1.0))
            log.add_edge(u, v, probability)
            replica.add_arc(u, v, probability)
    return log


def _needs(rng: np.random.Generator, csr: CSRGraph) -> list:
    """Bundle needs over random endpoints: twins and two walk counts."""
    picks = rng.choice(csr.num_vertices, size=min(10, csr.num_vertices), replace=False)
    needs = []
    for position, vertex in enumerate(int(v) for v in picks):
        walks = 40 if position % 2 else 24
        needs.append((vertex, False, walks))
        if position % 3 == 0:
            needs.append((vertex, True, walks))
    return needs


def _fresh(csr: CSRGraph, needs) -> dict:
    return ShardedWalkSampler(SEED, SHARD).sample_bundles_mixed(csr, needs, LENGTH)


class TestStaleRows:
    def test_dead_slots_and_unknown_vertices_read_the_sentinel(self):
        # Vertex 3 — the last real entry of the table — is dirty at
        # generation 2; a dead slot (-1) must not read it.
        dirtied = np.array([0, 0, 0, 2, 0], dtype=np.int64)
        bundle = np.array(
            [[0, 1, -1, -1], [0, 3, 1, -1], [0, 1, 3, -1], [0, 2, 1, 3], [0, 7, -1, -1]],
            dtype=np.int16,
        )
        rows, first = stale_rows(bundle, dirtied, 1)
        assert rows.tolist() == [1, 2] and first.tolist() == [1, 2]
        assert stale_rows(bundle, dirtied, 2)[0].tolist() == []

    def test_sync_without_dirty_rows_clears(self):
        store = WalkBundleStore()
        store.sync_version(("g", 1))
        store.put("k", np.zeros((2, 3), dtype=np.int16))
        assert store.sync_version(("g", 2))
        assert len(store) == 0 and store.stats.invalidations == 1

    def test_dirty_rows_from_another_version_clear(self):
        store = WalkBundleStore()
        store.sync_version(("g", 1))
        store.put("k", np.zeros((2, 3), dtype=np.int16))
        assert store.sync_version(("g", 3), dirty=[0], since=("g", 2))
        assert len(store) == 0

    def test_carried_entry_reports_rows_and_counts_a_repair(self):
        store = WalkBundleStore()
        store.sync_version(("g", 1))
        bundle = np.array([[0, 1, 2], [0, 2, 2], [0, -1, -1]], dtype=np.int16)
        store.put("k", bundle)
        assert not store.sync_version(("g", 2), dirty=[1], since=("g", 1))
        assert len(store) == 1 and store.stats.invalidations == 0
        old_view = VersionedStoreView(store, ("g", 1))
        assert old_view.lookup("k") is None  # an older reader never sees it
        assert store.get("k") is None  # ``get`` never returns a stale bundle
        found, (rows, first) = VersionedStoreView(store, ("g", 2)).lookup("k")
        assert found is bundle and rows.tolist() == [0] and first.tolist() == [1]
        stats = store.stats.as_dict()
        assert stats["repairs"] == 1 and stats["rows_repaired"] == 1
        store.put("k", bundle.copy())
        assert store.lookup("k")[1] is None  # re-put: valid at the new version


class TestDifferentialRepair:
    def test_repaired_bundles_equal_fresh_samples(self):
        rng = np.random.default_rng(2024)
        graph = _graph()
        config = TenantConfig(
            num_walks=24, iterations=LENGTH, seed=SEED, shard_size=SHARD,
            store_budget_bytes=None,
        )
        tenant = GraphTenant("t", graph, config)
        fresh_labels: list = []
        keys = {}
        for _ in range(32):
            with tenant.pin_epoch() as lease:
                csr = lease.snapshot.csr
                for need in _needs(rng, csr):
                    keys[tenant.sampler.store_key(need[0], need[1], LENGTH, need[2])] = need
                needs = list(keys.values())
                lease.snapshot.walks.resolve(csr, LENGTH, needs)
            old = tenant.pin_epoch()
            old_csr = old.snapshot.csr
            report = tenant.apply(_random_log(rng, graph, fresh_labels), verify=True)
            assert report.incremental and report.invalidated_bundles == 0
            # The previous epoch's reader resamples on its own CSR and puts
            # nothing into the carried store.
            entries = len(tenant.store)
            pinned = old.snapshot.walks.resolve(old_csr, LENGTH, needs)
            expected_old = _fresh(old_csr, needs)
            for need in needs:
                assert np.array_equal(pinned[need], expected_old[need]), need
            assert len(tenant.store) == entries
            old.release()
            with tenant.pin_epoch() as lease:
                csr = lease.snapshot.csr
                resolved = lease.snapshot.walks.resolve(csr, LENGTH, needs)
            expected = _fresh(csr, needs)
            assert len(tenant.store) == len(keys)
            for key, need in keys.items():
                assert np.array_equal(resolved[need], expected[need]), need
                cached, rows = tenant.store.lookup(key)
                assert rows is None and np.array_equal(cached, expected[need]), need
                assert cached.dtype == bundle_dtype(csr.num_vertices)
        stats = tenant.store.stats
        assert stats.invalidations == 0
        assert 0 < stats.rows_repaired
        assert fresh_labels  # the logs did add vertices

    def test_repair_up_casts_past_the_int16_bound(self):
        sampler = ShardedWalkSampler(SEED, SHARD)
        small = CSRGraph.from_uncertain(_graph())
        bundle = sampler.sample_bundles_mixed(small, [(0, False, 24)], LENGTH)[(0, False, 24)]
        assert bundle.dtype == np.int16
        big = CSRGraph(
            np.concatenate([small.indptr, np.full(40000, small.num_arcs)]),
            small.indices,
            small.probs,
            small.vertices + tuple(f"pad-{i}" for i in range(40000)),
        )
        rows = np.arange(0, 24, 3)
        repaired = sampler.sample_bundles_mixed(
            big, [], LENGTH, {(0, False, 24): (bundle, (rows, np.zeros_like(rows)))}
        )[(0, False, 24)]
        assert repaired.dtype == np.int32 and bundle.dtype == np.int16
        keys = sampler.world_keys(0, False, 24)[rows]
        expected = sample_walk_matrix_keyed(big, np.zeros(rows.size, np.int64), LENGTH, keys)
        assert np.array_equal(repaired[rows], expected)
        untouched = np.setdiff1d(np.arange(24), rows)
        assert np.array_equal(repaired[untouched], bundle[untouched])


class TestLaneRebuild:
    def test_epoch_lanes_equal_a_fresh_service_at_each_version(self):
        """The top-k index's walk lanes, rebuilt per epoch from carried and
        repaired bundles, equal the lanes a fresh service builds on a copy
        of the graph at that version."""
        rng = np.random.default_rng(99)
        graph = _graph(4)
        config = TenantConfig(
            num_walks=24, iterations=LENGTH, seed=SEED, shard_size=SHARD,
            store_budget_bytes=None,
        )
        tenant = GraphTenant("t", graph, config)
        fresh_labels: list = []
        for _ in range(10):
            with tenant.pin_epoch() as lease:
                lanes = snapshot_index(lease.snapshot, "sampling").lanes.lanes
            with SimilarityService(
                graph.copy(), num_walks=24, iterations=LENGTH, seed=SEED,
                shard_size=SHARD,
            ) as service:
                with service.registry.get(service.default_graph).pin_epoch() as lease:
                    expected = snapshot_index(lease.snapshot, "sampling").lanes.lanes
            assert lanes.dtype == expected.dtype
            assert np.array_equal(lanes, expected)
            tenant.apply(_random_log(rng, graph, fresh_labels))
        stats = tenant.store.stats
        assert stats.invalidations == 0
        assert stats.repairs > 0  # later epochs built from repaired bundles
        assert fresh_labels  # the logs did add vertices


def _graph_states(graph: UncertainGraph, logs: list) -> dict:
    """A frozen copy of the graph at every version the logs produce."""
    replica = graph.copy()
    offset = graph.version - replica.version
    states = {replica.version + offset: replica.copy()}
    for log in logs:
        log.apply_to(replica)
        states[replica.version + offset] = replica.copy()
    return states


@pytest.mark.watchdog(180)
class TestRepairStress:
    def test_stress_repaired_answers_bit_identical_under_ingest(self):
        """Concurrent pair queries on a read_workers=4 pool while random logs
        are applied: every answer equals a standalone engine at the graph
        version it reports, and the tenant store is never cleared."""
        rng = np.random.default_rng(77)
        graph = _graph(5)
        fresh_labels: list = []
        logs = []
        replica = graph.copy()
        for _ in range(6):
            log = _random_log(rng, replica, fresh_labels)
            log.apply_to(replica)
            logs.append(log)
        states = _graph_states(graph, logs)
        vertices = graph.vertices()
        pairs = [(vertices[i], vertices[i + 1]) for i in range(0, 12, 2)]
        methods = ("sampling", "two_phase")

        registry = GraphRegistry()
        registry.create("g", graph, num_walks=48, iterations=4, seed=SEED)
        answers: list = []
        lock = threading.Lock()
        stop = threading.Event()

        def query_loop(offset: int) -> None:
            turn = offset
            while not stop.is_set():
                u, v = pairs[turn % len(pairs)]
                method = methods[turn % len(methods)]
                result = registry_service.pair(u, v, method=method)
                with lock:
                    answers.append(
                        (u, v, method, result.details["graph_version"], result.score)
                    )
                turn += 1

        with SimilarityService(
            registry=registry,
            default_graph="g",
            read_workers=STRESS_READ_WORKERS,
            batch_wait_seconds=0.0005,
        ) as registry_service:
            for u, v in pairs:
                registry_service.pair(u, v, method="sampling")
            threads = [threading.Thread(target=query_loop, args=(i,)) for i in range(3)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for log in logs:
                    assert registry_service.mutate(log, graph="g").invalidated_bundles == 0
                # Six quick logs can all land before a reader pins a current
                # epoch; keep reading until every pair is answered at the
                # final version, so carried bundles are surely looked up.
                final = max(states)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    with lock:
                        done = {(u, v) for u, v, _, version, _ in answers if version == final}
                    if len(done) == len(pairs):
                        break
                    time.sleep(0.001)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        store = registry.get("g").store
        registry.close()

        assert answers
        assert store.stats.repairs > 0
        assert store.stats.invalidations == 0
        expected: dict = {}
        for u, v, method, version, score in answers:
            key = (u, v, method, version)
            if key not in expected:
                engine = SimRankEngine(
                    states[version].copy(), num_walks=48, iterations=4, seed=SEED
                )
                expected[key] = engine.similarity(u, v, method=method).score
            assert score == expected[key], key
