"""Fault-injection tests: worker and sampler failures stay contained.

The service carries two tests-only fault seams:

* ``SimilarityService._fail_hook`` — called with each query during batch
  planning on the read worker; raising fails *that query alone*.
* ``ShardedWalkSampler._fail_hook`` — called at the top of every
  ``sample_bundles_mixed``; raising simulates a sampling-stage crash
  (memory error) inside the shared batch stage.

These tests inject faults through both seams and assert the blast radius:
the faulted query (or tenant) gets a structured error, every other query
is answered bit-identically to a fault-free run, no epoch lease leaks
(``live`` returns to 1 and ``pinned`` to 0), and ingest barriers never
wedge the pipeline.
"""

from __future__ import annotations

import pytest

from repro.service import (
    MutationLog,
    PairQuery,
    SimilarityService,
    TopKVertexQuery,
)
from repro.utils.errors import ReproError


class InjectedFault(ReproError):
    """The sentinel error raised by test fault hooks."""

    code = "injected"


def _epoch_stats(service: SimilarityService, graph: str = "default") -> dict:
    return service.service_stats()["tenants"][graph]["epochs"]


def _assert_no_leaks(service: SimilarityService, graph: str = "default") -> None:
    stats = _epoch_stats(service, graph)
    assert stats["live"] == 1, stats
    assert stats["pinned"] == 0, stats


@pytest.mark.watchdog(180)
class TestServiceFailHook:
    def test_fault_fails_only_the_targeted_query(self, paper_graph):
        def hook(query):
            if isinstance(query, PairQuery) and query.v == "v3":
                raise InjectedFault("planner fault for v3")

        with SimilarityService(paper_graph, num_walks=128, seed=7) as reference:
            expected = reference.pair("v1", "v2")

        with SimilarityService(paper_graph, num_walks=128, seed=7) as service:
            service._fail_hook = hook
            healthy = service.submit(PairQuery("v1", "v2"))
            doomed = service.submit(PairQuery("v1", "v3"))
            result = healthy.result()
            with pytest.raises(InjectedFault):
                doomed.result()
            _assert_no_leaks(service)
        assert result.score == expected.score
        assert result.meeting_probabilities == expected.meeting_probabilities

    def test_service_keeps_serving_after_faults(self, paper_graph):
        calls = {"n": 0}

        def hook(query):
            calls["n"] += 1
            if calls["n"] <= 3:
                raise InjectedFault("transient planner fault")

        with SimilarityService(paper_graph, num_walks=128, seed=7) as service:
            service._fail_hook = hook
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    service.pair("v1", "v2")
            # The hook is exhausted; the same query now answers normally.
            result = service.pair("v1", "v2")
            assert result.score >= 0.0
            _assert_no_leaks(service)

    def test_faulted_query_releases_admission_quota(self, paper_graph):
        def hook(query):
            raise InjectedFault("always fails")

        with SimilarityService(
            paper_graph, num_walks=128, seed=7, max_inflight=2
        ) as service:
            service._fail_hook = hook
            for _ in range(4):
                with pytest.raises(InjectedFault):
                    service.pair("v1", "v2")
            stats = service.service_stats()["qos"]["admission"]["default"]
            assert stats["inflight"] == 0
            assert stats["queued"] == 0


@pytest.mark.watchdog(180)
class TestSamplerFailHook:
    def test_transient_sampler_fault_recovers_bit_identical(self, paper_graph):
        """A one-shot sampling crash fails the shared stage; the per-query
        retry path answers every query anyway, bit-identical to no fault."""
        with SimilarityService(paper_graph, num_walks=128, seed=7) as reference:
            expected = reference.pair("v1", "v2")

        with SimilarityService(paper_graph, num_walks=128, seed=7) as service:
            fired = {"n": 0}

            def hook():
                if fired["n"] == 0:
                    fired["n"] += 1
                    raise InjectedFault("sampler crashed once")

            service.sampler._fail_hook = hook
            result = service.pair("v1", "v2")
            assert fired["n"] == 1
            _assert_no_leaks(service)
        assert result.score == expected.score
        assert result.meeting_probabilities == expected.meeting_probabilities

    def test_persistent_sampler_fault_yields_structured_error(self, paper_graph):
        with SimilarityService(paper_graph, num_walks=128, seed=7) as service:
            def hook():
                raise InjectedFault("sampler is down")

            service.sampler._fail_hook = hook
            with pytest.raises(InjectedFault) as excinfo:
                service.pair("v1", "v2")
            assert excinfo.value.code == "injected"
            _assert_no_leaks(service)
            # Clearing the fault restores service.
            service.sampler._fail_hook = None
            assert service.pair("v1", "v2").score >= 0.0

    def test_other_tenant_unaffected_and_bit_identical(self, paper_graph):
        with SimilarityService(paper_graph, num_walks=128, seed=7) as reference:
            reference.create_graph("b", paper_graph.copy(), seed=11)
            expected = reference.pair("v1", "v2", graph="b")

        with SimilarityService(paper_graph, num_walks=128, seed=7) as service:
            service.create_graph("b", paper_graph.copy(), seed=11)

            def hook():
                raise InjectedFault("tenant default's sampler is down")

            service.sampler._fail_hook = hook
            with pytest.raises(InjectedFault):
                service.pair("v1", "v2")
            result = service.pair("v1", "v2", graph="b")
            _assert_no_leaks(service, "default")
            _assert_no_leaks(service, "b")
        assert result.score == expected.score
        assert result.meeting_probabilities == expected.meeting_probabilities

    def test_topk_group_failure_is_contained(self, paper_graph):
        with SimilarityService(paper_graph, num_walks=128, seed=7) as service:
            def hook():
                raise InjectedFault("sampler is down")

            service.sampler._fail_hook = hook
            future = service.submit(TopKVertexQuery("v1", 3))
            with pytest.raises(InjectedFault):
                future.result()
            service.sampler._fail_hook = None
            assert len(service.top_k_for_vertex("v1", 3)) == 3
            _assert_no_leaks(service)


@pytest.mark.watchdog(180)
class TestIngestBarrierUnderFaults:
    def test_failed_mutation_does_not_wedge_later_queries(self, paper_graph):
        with SimilarityService(paper_graph, num_walks=128, seed=7) as service:
            before = service.pair("v1", "v2")
            log = MutationLog().remove_edge("v1", "nonexistent-vertex")
            future = service.submit_mutations(log)
            # Queries submitted after the doomed mutation park on its
            # barrier; the writer must resolve it on failure too.
            after = service.pair("v1", "v2")
            with pytest.raises(ReproError):
                future.result()
            _assert_no_leaks(service)
        # The graph is unchanged, so the post-barrier answer is identical.
        assert after.score == before.score

    def test_faults_during_ingest_do_not_leak_epochs(self, paper_graph):
        with SimilarityService(paper_graph, num_walks=128, seed=7) as service:
            def hook():
                raise InjectedFault("sampler is down")

            service.sampler._fail_hook = hook
            with pytest.raises(InjectedFault):
                service.pair("v1", "v2")
            service.sampler._fail_hook = None
            report = service.mutate(
                MutationLog().add_edge("v1", "v9", 0.5)
            )
            assert report.ops == 1
            assert service.pair("v1", "v9").score >= 0.0
            _assert_no_leaks(service)
