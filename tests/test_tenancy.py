"""Tests for the multi-tenant registry and mutation ingest (repro.service.tenancy)."""

from __future__ import annotations

import io
import json

import pytest

from repro.graph.csr import CSRGraph
from repro.graph.uncertain_graph import UncertainGraph, example_graph
from repro.service import (
    GraphRegistry,
    MutationLog,
    PairQuery,
    SimilarityService,
    TenantConfig,
    TopKVertexQuery,
)
from repro.service.runner import run
from repro.utils.errors import InvalidParameterError


def _tenant_graph(offset: int) -> UncertainGraph:
    """Small deterministic graphs that differ per tenant."""
    graph = example_graph()
    graph.add_arc("v5", "v1", 0.2 + 0.1 * offset)
    return graph


class TestMutationLog:
    def test_fluent_construction_and_iteration(self):
        log = (
            MutationLog()
            .add_edge("a", "b", 0.5)
            .update_probability("a", "b", 0.9)
            .remove_edge("a", "b")
        )
        assert len(log) == 3
        assert [m.op for m in log] == ["add_edge", "update_probability", "remove_edge"]

    def test_records_roundtrip(self):
        log = MutationLog().add_edge("a", "b", 0.5).remove_edge("a", "b")
        assert MutationLog.from_records(log.as_records()).as_records() == log.as_records()

    def test_invalid_probability_rejected(self):
        with pytest.raises(InvalidParameterError):
            MutationLog().add_edge("a", "b", 0.0)
        with pytest.raises(InvalidParameterError):
            MutationLog().update_probability("a", "b", 1.5)
        with pytest.raises(InvalidParameterError):
            MutationLog.from_records([{"op": "add_edge", "u": "a", "v": "b"}])

    def test_unknown_op_rejected(self):
        with pytest.raises(InvalidParameterError):
            MutationLog.from_records([{"op": "explode", "u": "a", "v": "b"}])

    def test_missing_fields_rejected(self):
        with pytest.raises(InvalidParameterError):
            MutationLog.from_records([{"op": "remove_edge", "u": "a"}])

    def test_apply_returns_dirty_sources(self, paper_graph):
        log = (
            MutationLog()
            .add_edge("v1", "v6", 0.4)     # dirties v1, creates v6
            .remove_edge("v3", "v4")       # dirties v3
            .update_probability("v4", "v2", 0.3)
        )
        dirty = log.apply_to(paper_graph)
        assert dirty == {"v1", "v6", "v3", "v4"}
        assert paper_graph.has_arc("v1", "v6")
        assert not paper_graph.has_arc("v3", "v4")
        assert paper_graph.probability("v4", "v2") == pytest.approx(0.3)

    def test_validation_is_atomic(self, paper_graph):
        """A log with one bad op must leave the graph completely untouched."""
        version = paper_graph.version
        log = MutationLog().add_edge("v1", "v6", 0.4).remove_edge("v1", "nope")
        with pytest.raises(InvalidParameterError):
            log.apply_to(paper_graph)
        assert paper_graph.version == version
        assert not paper_graph.has_vertex("v6")

    def test_add_existing_edge_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            MutationLog().add_edge("v1", "v3", 0.5).apply_to(paper_graph)

    def test_update_missing_edge_rejected(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            MutationLog().update_probability("v1", "v4", 0.5).apply_to(paper_graph)

    def test_intra_log_effects_respected(self, paper_graph):
        """Removing an arc the same log added (and re-adding a removed one)
        must validate against the log's own earlier ops."""
        log = (
            MutationLog()
            .add_edge("v1", "v6", 0.4)
            .remove_edge("v1", "v6")
            .remove_edge("v1", "v3")
            .add_edge("v1", "v3", 0.9)
        )
        log.apply_to(paper_graph)
        assert not paper_graph.has_arc("v1", "v6")
        assert paper_graph.probability("v1", "v3") == pytest.approx(0.9)


class TestTenantConfig:
    def test_replace_overrides_fields(self):
        config = TenantConfig().replace(num_walks=50, seed=3)
        assert config.num_walks == 50
        assert config.seed == 3

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(InvalidParameterError):
            TenantConfig().replace(walk_count=50)


class TestGraphRegistry:
    def test_create_get_drop_lifecycle(self):
        with GraphRegistry() as registry:
            registry.create("a", example_graph(), num_walks=50)
            registry.create("b", example_graph(), num_walks=60)
            assert registry.names() == ["a", "b"]
            assert "a" in registry and len(registry) == 2
            assert registry.get("a").config.num_walks == 50
            registry.drop("a")
            assert "a" not in registry
            with pytest.raises(InvalidParameterError):
                registry.get("a")

    def test_duplicate_name_rejected(self):
        with GraphRegistry() as registry:
            registry.create("a", example_graph())
            with pytest.raises(InvalidParameterError):
                registry.create("a", example_graph())

    def test_invalid_name_rejected(self):
        with GraphRegistry() as registry:
            with pytest.raises(InvalidParameterError):
                registry.create("", example_graph())

    def test_drop_unknown_rejected(self):
        with GraphRegistry() as registry:
            with pytest.raises(InvalidParameterError):
                registry.drop("ghost")

    def test_apply_reports_and_bumps_version(self):
        with GraphRegistry(verify_mutations=True) as registry:
            tenant = registry.create("a", example_graph(), num_walks=50, seed=1)
            version = tenant.graph.version
            report = registry.apply(
                "a", MutationLog().add_edge("v5", "v1", 0.5).remove_edge("v1", "v3")
            )
            assert report.ops == 2
            assert report.incremental
            assert report.version == tenant.graph.version > version
            assert report.dirty_rows == 2
            assert tenant.mutations_applied == 1

    def test_stats_per_tenant(self):
        with GraphRegistry() as registry:
            registry.create("a", example_graph(), num_walks=50)
            stats = registry.stats()
            assert stats["a"]["graph"]["num_vertices"] == 5
            assert stats["a"]["store"]["hits"] == 0


class TestMultiTenantService:
    def test_acceptance_three_tenants_bit_identical_to_standalone(self):
        """Registry hosting 3 tenants under interleaved queries and
        mutations answers bit-identically to per-tenant standalone services."""
        seeds = {name: 11 + offset for offset, name in enumerate(("a", "b", "c"))}
        logs = {
            "a": MutationLog().add_edge("v5", "v2", 0.7),
            "b": MutationLog().remove_edge("v3", "v4"),
            "c": MutationLog().update_probability("v2", "v1", 0.35),
        }

        registry = GraphRegistry(verify_mutations=True)
        for offset, (name, seed) in enumerate(seeds.items()):
            registry.create(
                name, _tenant_graph(offset), num_walks=200, iterations=4, seed=seed
            )
        shared: dict = {}
        with SimilarityService(registry=registry, default_graph="a") as service:
            for name in seeds:  # interleave: query → mutate → query, per tenant
                shared[name, "before"] = service.pair("v1", "v2", graph=name)
                service.mutate(logs[name], graph=name)
            for name in seeds:
                shared[name, "after"] = service.pair("v1", "v2", graph=name)
                shared[name, "topk"] = service.submit(
                    TopKVertexQuery("v1", 3, graph=name)
                ).result()
        registry.close()

        for offset, (name, seed) in enumerate(seeds.items()):
            graph = _tenant_graph(offset)
            with SimilarityService(
                graph, num_walks=200, iterations=4, seed=seed
            ) as standalone:
                before = standalone.pair("v1", "v2")
                standalone.mutate(logs[name])
                after = standalone.pair("v1", "v2")
                topk = standalone.top_k_for_vertex("v1", 3)
            assert shared[name, "before"].score == before.score
            assert shared[name, "after"].score == after.score
            assert shared[name, "topk"] == topk

    def test_mutation_repairs_only_that_tenant(self):
        """Satellite: after mutate, the mutated tenant's CSR snapshot is
        replaced and its bundles are carried forward — repaired, not
        resampled, and answering exactly like a fresh service on the mutated
        graph — while every other tenant's caches are untouched."""
        registry = GraphRegistry()
        registry.create("a", _tenant_graph(0), num_walks=100, seed=1)
        registry.create("b", _tenant_graph(1), num_walks=100, seed=2)
        with SimilarityService(registry=registry, default_graph="a") as service:
            service.pair("v1", "v2", graph="a")
            service.pair("v1", "v2", graph="b")
            tenant_a, tenant_b = registry.get("a"), registry.get("b")
            csr_a = CSRGraph.from_uncertain(tenant_a.graph)
            csr_b = CSRGraph.from_uncertain(tenant_b.graph)
            entries_a, entries_b = len(tenant_a.store), len(tenant_b.store)
            assert entries_a > 0 and entries_b > 0

            report = service.mutate(MutationLog().add_edge("v5", "v2", 0.6), graph="a")

            assert report.invalidated_bundles == 0
            assert len(tenant_a.store) == entries_a              # carried
            assert tenant_a.store.stats.invalidations == 0
            assert CSRGraph.from_uncertain(tenant_a.graph) is not csr_a
            assert len(tenant_b.store) == entries_b              # untouched
            assert tenant_b.store.stats.invalidations == 0
            assert CSRGraph.from_uncertain(tenant_b.graph) is csr_b

            misses_a = tenant_a.store.stats.misses
            carried = service.pair("v1", "v2", graph="a")
            assert tenant_a.store.stats.misses == misses_a       # no bundle resampled whole
            assert tenant_a.store.stats.repairs > 0
            misses_b = tenant_b.store.stats.misses
            service.pair("v1", "v2", graph="b")
            assert tenant_b.store.stats.misses == misses_b       # still warm
            mutated = tenant_a.graph
        registry.close()

        fresh = UncertainGraph(vertices=mutated.vertices(), arcs=mutated.arcs())
        with SimilarityService(fresh, num_walks=100, seed=1) as service:
            answer = service.pair("v1", "v2")
        assert answer.meeting_probabilities == carried.meeting_probabilities
        assert answer.score == carried.score

    def test_post_mutation_matches_freshly_built_graph(self):
        """Satellite: answers after mutate equal a service built directly on
        the post-mutation graph state."""
        graph = _tenant_graph(0)
        log = (
            MutationLog()
            .add_edge("v1", "v6", 0.4)
            .remove_edge("v3", "v4")
            .update_probability("v4", "v2", 0.5)
        )
        with SimilarityService(
            graph, num_walks=200, iterations=4, seed=9, verify_mutations=True
        ) as service:
            service.pair("v1", "v2")  # warm the store pre-mutation
            service.mutate(log)
            mutated_score = service.pair("v1", "v2").score
            mutated_topk = service.top_k_for_vertex("v1", 3)

        fresh = UncertainGraph(vertices=graph.vertices(), arcs=graph.arcs())
        with SimilarityService(
            fresh, num_walks=200, iterations=4, seed=9
        ) as service:
            assert service.pair("v1", "v2").score == mutated_score
            assert service.top_k_for_vertex("v1", 3) == mutated_topk

    def test_queries_serialized_with_mutations(self):
        """A query submitted after a mutation sees the mutated graph even
        when both are queued before the worker runs either."""
        with SimilarityService(
            example_graph(), num_walks=100, iterations=4, seed=5,
            batch_wait_seconds=0.05,
        ) as service:
            before = service.submit(PairQuery("v1", "v2"))
            mutation = service.submit_mutations(
                MutationLog().add_edge("v5", "v1", 0.9)
            )
            after = service.submit(PairQuery("v1", "v2"))
            assert mutation.result(timeout=30).ops == 1
            assert before.result(timeout=30).score != after.result(timeout=30).score

    def test_unknown_tenant_fails_query_cleanly(self):
        with SimilarityService(example_graph(), num_walks=50, seed=1) as service:
            with pytest.raises(InvalidParameterError):
                service.pair("v1", "v2", graph="ghost")
            # the worker survives and keeps answering
            assert 0.0 <= service.pair("v1", "v2").score <= 1.0

    def test_mutation_error_does_not_kill_worker(self):
        with SimilarityService(example_graph(), num_walks=50, seed=1) as service:
            with pytest.raises(InvalidParameterError):
                service.mutate(MutationLog().remove_edge("v1", "nope"))
            assert 0.0 <= service.pair("v1", "v2").score <= 1.0

    def test_create_and_drop_through_service(self):
        with SimilarityService(example_graph(), num_walks=50, seed=1) as service:
            service.create_graph("extra", example_graph(), num_walks=60)
            assert service.graphs() == ["default", "extra"]
            assert 0.0 <= service.pair("v1", "v2", graph="extra").score <= 1.0
            service.drop_graph("extra")
            assert service.graphs() == ["default"]

    def test_requires_exactly_one_of_graph_and_registry(self):
        with pytest.raises(InvalidParameterError):
            SimilarityService()
        with GraphRegistry() as registry:
            with pytest.raises(InvalidParameterError):
                SimilarityService(example_graph(), registry=registry)

    def test_empty_mutation_log_reports_nothing_invalidated(self):
        with SimilarityService(example_graph(), num_walks=100, seed=1) as service:
            service.pair("v1", "v2")  # warm the store
            entries = len(service.store)
            report = service.mutate(MutationLog())
            assert report.ops == 0
            assert report.invalidated_bundles == 0
            assert len(service.store) == entries  # bundles really survived

    def test_verify_flag_does_not_leak_into_external_registry(self):
        with GraphRegistry() as registry:
            registry.create("a", example_graph(), num_walks=50, seed=1)
            with SimilarityService(
                registry=registry, default_graph="a", verify_mutations=True
            ) as service:
                service.mutate(MutationLog().add_edge("v5", "v1", 0.5), graph="a")
            assert registry.verify_mutations is False  # owner keeps control

    def test_external_registry_not_closed_by_service(self):
        with GraphRegistry() as registry:
            registry.create("a", example_graph(), num_walks=50, seed=1)
            with SimilarityService(registry=registry, default_graph="a") as service:
                service.pair("v1", "v2")
            assert registry.names() == ["a"]  # survives service shutdown

    def test_per_tenant_stats_in_service_stats(self):
        """Satellite: per-tenant hit/miss counters through service_stats."""
        registry = GraphRegistry()
        registry.create("a", _tenant_graph(0), num_walks=100, seed=1)
        registry.create("b", _tenant_graph(1), num_walks=100, seed=2)
        with SimilarityService(registry=registry, default_graph="a") as service:
            service.pair("v1", "v2", graph="a")
            service.pair("v1", "v2", graph="a")
            service.pair("v1", "v2", graph="b")
            stats = service.service_stats()
        tenants = stats["tenants"]
        assert tenants["a"]["store"]["hits"] >= 2
        assert tenants["a"]["store"]["misses"] == 2
        assert tenants["b"]["store"]["misses"] == 2
        assert tenants["b"]["store"]["hits"] == 0
        assert stats["store"] == tenants["a"]["store"]  # default-tenant mirror
        registry.close()

    def test_round_robin_mixed_mutations_report_rows_and_hit_rates(self):
        """Each tenant in turn ingests one add/remove/update log through the
        service: every report counts its ops and dirty rows, and the stats
        carry a store hit rate for every tenant."""
        names = ("a", "b", "c")
        registry = GraphRegistry()
        for offset, name in enumerate(names):
            registry.create(name, _tenant_graph(offset), num_walks=60, seed=offset)
        with SimilarityService(registry=registry, default_graph="a") as service:
            for name in names:
                service.pair("v1", "v2", graph=name)
            for offset, name in enumerate(names):
                log = (
                    MutationLog()
                    .update_probability("v2", "v1", 0.45)
                    .remove_edge("v5", "v1")
                    .add_edge("v4", f"new-{offset}", 0.6)
                )
                report = service.mutate(log, graph=name)
                assert report.ops == 3
                assert report.dirty_rows >= 1
                assert report.snapshot_ms >= 0.0
                for other in names:
                    service.pair("v1", "v2", graph=other)
            tenants = service.service_stats()["tenants"]
        registry.close()
        assert set(tenants) == set(names)
        for name in names:
            assert 0.0 < tenants[name]["store"]["hit_rate"] <= 1.0


class TestRunnerTenancyOps:
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

    def test_create_query_mutate_drop_stream(self):
        code, out, _ = self._run(
            [
                '{"op": "create_graph", "graph": "g2", "id": 1, '
                '"edges": [["a", "b", 0.9], ["b", "c", 0.8], ["c", "a", 0.7]], '
                '"params": {"num_walks": 100, "seed": 3, "iterations": 4}}',
                '{"op": "pair", "u": "a", "v": "b", "graph": "g2"}',
                '{"op": "mutate", "graph": "g2", "ops": ['
                '{"op": "add_edge", "u": "a", "v": "c", "probability": 0.4}]}',
                '{"op": "pair", "u": "a", "v": "b", "graph": "g2"}',
                '{"op": "pair", "u": "v1", "v": "v2"}',
                '{"op": "drop_graph", "graph": "g2"}',
                '{"op": "pair", "u": "a", "v": "b", "graph": "g2"}',
            ]
        )
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert len(responses) == 7
        assert responses[0] == {
            "op": "create_graph", "id": 1, "graph": "g2",
            "num_vertices": 3, "num_arcs": 3,
        }
        assert 0.0 <= responses[1]["score"] <= 1.0
        assert responses[2]["ops"] == 1
        assert responses[2]["incremental"] is True
        assert responses[2]["num_arcs"] == 4
        assert 0.0 <= responses[3]["score"] <= 1.0
        assert 0.0 <= responses[4]["score"] <= 1.0     # default tenant untouched
        assert responses[5]["dropped"] is True
        assert "unknown graph" in responses[6]["error"]

    def test_mutation_changes_scores_and_orders_with_queries(self):
        lines = [
            '{"op": "pair", "u": "v1", "v": "v2", "id": "pre"}',
            '{"op": "mutate", "graph": "default", "ops": ['
            '{"op": "add_edge", "u": "v5", "v": "v1", "probability": 0.9}]}',
            '{"op": "pair", "u": "v1", "v": "v2", "id": "post"}',
        ]
        code, out, _ = self._run(lines, "--verify-mutations")
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert responses[0]["id"] == "pre" and responses[2]["id"] == "post"
        assert responses[0]["score"] != responses[2]["score"]

    def test_invalid_mutation_reports_error_and_continues(self):
        code, out, _ = self._run(
            [
                '{"op": "mutate", "graph": "default", "ops": ['
                '{"op": "remove_edge", "u": "v1", "v": "nope"}]}',
                '{"op": "pair", "u": "v1", "v": "v2"}',
            ]
        )
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert "does not exist" in responses[0]["error"]
        assert 0.0 <= responses[1]["score"] <= 1.0

    def test_stats_request_reports_tenants(self):
        code, out, _ = self._run(
            [
                '{"op": "pair", "u": "v1", "v": "v2"}',
                '{"op": "stats", "id": 9}',
            ]
        )
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        stats = responses[1]["stats"]
        assert responses[1]["id"] == 9
        assert stats["queries"] == 1
        assert stats["tenants"]["default"]["store"]["misses"] == 2
        assert stats["tenants"]["default"]["mutations"] == 0

    def test_deterministic_across_runs_with_mutations(self):
        lines = [
            '{"op": "pair", "u": "v1", "v": "v2"}',
            '{"op": "mutate", "graph": "default", "ops": ['
            '{"op": "update_probability", "u": "v1", "v": "v3", "probability": 0.4}]}',
            '{"op": "pair", "u": "v1", "v": "v2"}',
        ]
        _, first, _ = self._run(lines)
        _, second, _ = self._run(lines)
        assert first == second
