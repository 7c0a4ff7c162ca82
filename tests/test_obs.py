"""Tests of the observability subsystem: metrics, tracing, instrumentation.

Covers the `repro.obs` package in isolation (registry semantics, null
singletons, histogram percentiles, span trees) and its integration with the
serving stack: service stats backed by the registry, trace spans riding
query responses, the uniform cache-stats shape, the runner's ``--trace-out``
/ ``--no-metrics`` flags and the ``metrics`` control op — and, critically,
that span attribution never interleaves across concurrent queries on a
multi-worker read pool.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.graph.uncertain_graph import example_graph
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_SCOPE,
    Observability,
    StageScope,
    Tracer,
)
from repro.service.runner import run
from repro.service.service import PairQuery, SimilarityService, TopKVertexQuery
from repro.service.tenancy import MutationLog


class TestInstruments:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.get() == 5

    def test_gauge_modes(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.get() == 2.0
        gauge.set_max(10.0)
        gauge.set_max(4.0)  # lower: ignored
        assert gauge.get() == 10.0

    def test_histogram_summary_and_percentiles(self):
        hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["min"] == 0.5
        assert summary["max"] == 50.0
        assert summary["total"] == pytest.approx(56.2)
        # Upper-bucket-edge estimates: p50 falls in the <=1.0 bucket.
        assert summary["p50"] == 1.0
        # The top quantiles clamp to the observed maximum, not the edge.
        assert summary["p95"] == 50.0 and summary["p99"] == 50.0

    def test_histogram_overflow_bucket_reports_observed_max(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(123.0)
        assert hist.percentile(0.5) == 123.0

    def test_histogram_empty_summary(self):
        assert Histogram("h").summary() == {"count": 0}

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(DEFAULT_LATENCY_BUCKETS_MS)

    def test_thread_safety_of_counter(self):
        counter = Counter("c")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.get() == 8000


class TestMetricsRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(1.5)
        registry.register_callback("queue", lambda: 7)
        snap = registry.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"depth": 2, "queue": 7}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_raising_callback_reports_none(self):
        registry = MetricsRegistry()

        def boom():
            raise RuntimeError("gone")

        registry.register_callback("queue", boom)
        assert registry.snapshot()["gauges"]["queue"] is None

    def test_disabled_registry_hands_out_shared_nulls(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("x") is NULL_COUNTER
        assert registry.gauge("x") is NULL_GAUGE
        assert registry.histogram("x") is NULL_HISTOGRAM
        # Mutators are no-ops and nothing is recorded anywhere.
        registry.counter("x").inc()
        registry.gauge("x").set(5)
        registry.histogram("x").observe(1.0)
        registry.register_callback("x", lambda: 1)
        snap = registry.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {} and snap["gauges"] == {}
        assert NULL_HISTOGRAM.summary() == {"count": 0}


class TestTracer:
    def test_trace_ids_unique_and_monotone(self):
        events = []
        tracer = Tracer(sink=events.append)
        ids = [tracer.begin("Op").trace_id for _ in range(5)]
        assert ids == sorted(set(ids))

    def test_disabled_tracer_emits_nothing(self):
        assert Tracer(enabled=False, sink=[].append).begin("Op") is None
        # Enabled without a sink is also off: nowhere to emit.
        assert Tracer(enabled=True, sink=None).begin("Op") is None

    def test_span_nesting_and_schema(self):
        events = []
        tracer = Tracer(sink=events.append)
        trace = tracer.begin("Op")
        with trace.span("outer", {"k": 1}):
            with trace.span("inner"):
                pass
        total = trace.finish()
        spans = [e for e in events if e["type"] == "span"]
        closing = [e for e in events if e["type"] == "trace"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent"] == outer["id"] and outer["parent"] is None
        assert outer["k"] == 1
        assert closing == [
            {"type": "trace", "trace": trace.trace_id, "op": "Op", "total_ms": total}
        ]
        for span in spans:
            assert span["start_ms"] >= 0.0 and span["dur_ms"] >= 0.0

    def test_finish_is_idempotent_and_closes_open_spans(self):
        events = []
        tracer = Tracer(sink=events.append)
        trace = tracer.begin("Op")
        trace.open_span("left_open")
        first = trace.finish({"error": False})
        second = trace.finish()
        assert first == second == trace.total_ms
        assert trace.finished
        assert len([e for e in events if e["type"] == "trace"]) == 1
        (span,) = [e for e in events if e["type"] == "span"]
        assert span["name"] == "left_open"

    def test_spans_after_finish_are_dropped(self):
        events = []
        tracer = Tracer(sink=events.append)
        trace = tracer.begin("Op")
        trace.finish()
        trace.add_span("late", 0.0, 1.0)
        trace.open_span("later")
        trace.close_span()
        assert [e for e in events if e["type"] == "span"] == []


class TestStageScope:
    def test_fans_out_to_every_trace_and_observes_metrics(self):
        events = []
        tracer = Tracer(sink=events.append)
        metrics = MetricsRegistry()
        traces = [tracer.begin("Op"), None, tracer.begin("Op")]
        scope = StageScope(metrics, traces)
        with scope.stage("work", {"n": 2}):
            pass
        for trace in traces:
            if trace is not None:
                trace.finish()
        spans = [e for e in events if e["type"] == "span"]
        assert len(spans) == 2 and {s["trace"] for s in spans} == {1, 2}
        assert metrics.histogram("stage_ms.work").count == 1

    def test_null_scope_is_reused(self):
        obs = Observability.disabled()
        assert obs.scope() is NULL_SCOPE
        assert obs.scope([None]) is NULL_SCOPE
        with NULL_SCOPE.stage("anything"):
            pass

    def test_observability_scope_selection(self):
        obs = Observability()  # metrics on
        assert obs.scope() is not NULL_SCOPE  # metrics still want stage timings
        assert not obs.active or obs.metrics.enabled


class TestServiceIntegration:
    def test_service_stats_carries_registry_snapshot(self):
        with SimilarityService(example_graph(), num_walks=50, seed=7) as service:
            service.pair("v1", "v2")
            stats = service.service_stats()
        assert stats["queries"] == 1
        metrics = stats["metrics"]
        assert metrics["enabled"] is True
        assert metrics["counters"]["service.queries"] == 1
        assert metrics["counters"]["service.queries_by_kind.PairQuery"] == 1
        assert metrics["histograms"]["service.query_total_ms"]["count"] == 1
        assert metrics["histograms"]["service.dispatch_wait_ms"]["count"] == 1
        assert stats["read_pool_queue_depth"] == 0
        assert stats["tracing"] is False

    def test_disabled_observability_keeps_public_stats_shape(self):
        obs = Observability.disabled()
        with SimilarityService(example_graph(), num_walks=50, seed=7, obs=obs) as service:
            result = service.pair("v1", "v2")
            stats = service.service_stats()
        # Counters read 0 (nulls), but every key is still present.
        assert stats["queries"] == 0 and stats["batches"] == 0
        assert stats["metrics"]["enabled"] is False
        assert stats["read_pool_queue_depth"] == 0
        assert "trace_id" not in result.details

    def test_results_carry_trace_ids_only_when_tracing(self):
        events = []
        obs = Observability(tracing=True, trace_sink=events.append)
        with SimilarityService(example_graph(), num_walks=50, seed=7, obs=obs) as service:
            pair = service.pair("v1", "v2")
            topk = service.top_k_for_vertex("v1", k=3)
        assert pair.details["trace_id"] != topk.trace_id
        assert pair.details["trace_total_ms"] > 0.0
        assert topk.trace_total_ms > 0.0
        closings = [e for e in events if e["type"] == "trace"]
        assert {c["trace"] for c in closings} == {
            pair.details["trace_id"],
            topk.trace_id,
        }

    def test_trace_span_timeline_sums_within_total(self):
        events = []
        obs = Observability(tracing=True, trace_sink=events.append)
        with SimilarityService(example_graph(), num_walks=50, seed=7, obs=obs) as service:
            topk = service.top_k_for_vertex("v1", k=3)
        spans = [e for e in events if e["type"] == "span" and e["trace"] == topk.trace_id]
        (closing,) = [e for e in events if e["type"] == "trace" and e["trace"] == topk.trace_id]
        names = {span["name"] for span in spans}
        assert {"dispatch_wait", "coalesce", "epoch_pin", "read_wait", "execute"} <= names
        # The executor/index stages nest under "execute".
        (execute,) = [s for s in spans if s["name"] == "execute"]
        nested = {s["name"] for s in spans if s["parent"] == execute["id"]}
        assert "index_bound" in nested or "walk_sampling" in nested
        top_level = [s for s in spans if s["parent"] is None]
        assert sum(s["dur_ms"] for s in top_level) <= closing["total_ms"] + 0.05

    def test_mutation_traces(self):
        events = []
        obs = Observability(tracing=True, trace_sink=events.append)
        log = MutationLog()
        log.add_edge("v1", "new", 0.5)
        with SimilarityService(example_graph(), num_walks=50, seed=7, obs=obs) as service:
            service.mutate(log)
        mutation = [e for e in events if e["type"] == "trace" and e["op"] == "Mutation"]
        assert len(mutation) == 1
        names = [e["name"] for e in events if e["type"] == "span"]
        assert "queue_wait" in names and "apply" in names

    def test_ingest_latency_lands_in_registry_and_tenant_stats(self):
        log = MutationLog()
        log.add_edge("v1", "new", 0.5)
        with SimilarityService(example_graph(), num_walks=50, seed=7) as service:
            service.mutate(log)
            stats = service.service_stats()
        assert stats["metrics"]["histograms"]["ingest.apply_ms"]["count"] == 1
        assert stats["metrics"]["histograms"]["ingest.snapshot_ms"]["count"] == 1
        ingest = stats["tenants"]["default"]["ingest"]
        assert ingest["last_apply_ms"] >= ingest["last_snapshot_ms"] >= 0.0

    def test_uniform_cache_stats_shape(self):
        with SimilarityService(example_graph(), num_walks=50, seed=7) as service:
            service.top_k_for_vertex("v1", k=3)
            caches = service.service_stats()["tenants"]["default"]["caches"]
        assert set(caches) == {
            "walk_bundles", "topk_indexes", "transitions", "speedup_tables"
        }
        for name, shape in caches.items():
            assert set(shape) == {"hits", "misses", "evictions", "bytes"}, name
            assert all(value >= 0 for value in shape.values()), name

    def test_stage_histograms_recorded_with_default_metrics(self):
        with SimilarityService(example_graph(), num_walks=50, seed=7) as service:
            service.top_k_for_vertex("v1", k=3, method="two_phase")
            histograms = service.service_stats()["metrics"]["histograms"]
        assert histograms["stage_ms.walk_sampling"]["count"] >= 1
        assert histograms["stage_ms.meeting_tails"]["count"] >= 1
        assert histograms["stage_ms.shared_prefix"]["count"] >= 1

    def test_tracing_never_changes_answers(self):
        def scores(obs):
            with SimilarityService(example_graph(), num_walks=80, seed=7, obs=obs) as service:
                pair = service.pair("v1", "v2").score
                topk = [
                    (vertex, score)
                    for vertex, score in service.top_k_for_vertex("v1", k=3)
                ]
            return pair, topk

        baseline = scores(Observability.disabled())
        assert scores(Observability()) == baseline
        assert scores(Observability(tracing=True, trace_sink=lambda event: None)) == baseline


class TestConcurrentTraceAttribution:
    def test_spans_never_interleave_across_queries(self):
        """read_workers=4, many in-flight queries: every span lands on the
        trace of exactly the query it belongs to, each trace finishes once,
        and each trace's top-level spans fit inside its own total."""
        events = []
        obs = Observability(tracing=True, trace_sink=events.append)
        with SimilarityService(
            example_graph(),
            num_walks=60,
            seed=7,
            read_workers=4,
            batch_wait_seconds=0.0005,
            obs=obs,
        ) as service:
            futures = []
            for round_index in range(12):
                futures.append(service.submit(PairQuery("v1", "v2")))
                futures.append(service.submit(TopKVertexQuery("v2", 3)))
            results = [future.result() for future in futures]
        closings = [e for e in events if e["type"] == "trace"]
        trace_ids = [c["trace"] for c in closings]
        assert len(trace_ids) == len(set(trace_ids)) == 24
        response_ids = [
            r.details["trace_id"] if hasattr(r, "details") else r.trace_id
            for r in results
        ]
        assert sorted(response_ids) == sorted(trace_ids)
        totals = {c["trace"]: c["total_ms"] for c in closings}
        spans_by_trace = {}
        for event in events:
            if event["type"] == "span":
                spans_by_trace.setdefault(event["trace"], []).append(event)
        for trace_id, spans in spans_by_trace.items():
            top = [s for s in spans if s["parent"] is None]
            assert sum(s["dur_ms"] for s in top) <= totals[trace_id] + 0.05, trace_id
            # Span ids within one trace are unique (no cross-talk).
            ids = [s["id"] for s in spans]
            assert len(ids) == len(set(ids))


class TestRunnerObs:
    def _run(self, lines, *extra_args):
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        code = run(
            ["--graph", "example", "--seed", "7", "--num-walks", "100", *extra_args],
            stdin=stdin,
            stdout=stdout,
            stderr=stderr,
        )
        return code, stdout.getvalue(), stderr.getvalue()

    def test_metrics_control_op(self):
        code, out, _ = self._run(
            ['{"op": "pair", "u": "v1", "v": "v2"}', '{"op": "metrics"}']
        )
        assert code == 0
        metrics = json.loads(out.splitlines()[1])
        assert metrics["op"] == "metrics"
        assert metrics["tracing"] is False
        assert metrics["metrics"]["counters"]["service.queries"] == 1

    def test_no_metrics_flag(self):
        code, out, _ = self._run(['{"op": "metrics"}'], "--no-metrics")
        assert code == 0
        metrics = json.loads(out.strip())
        assert metrics["metrics"]["enabled"] is False
        assert metrics["metrics"]["counters"] == {}

    def test_default_stream_has_no_trace_fields(self):
        code, out, _ = self._run(['{"op": "pair", "u": "v1", "v": "v2"}'])
        assert code == 0
        response = json.loads(out.strip())
        assert "trace_id" not in response and "trace_total_ms" not in response

    def test_trace_out_writes_jsonl_and_tags_responses(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, out, _ = self._run(
            [
                '{"op": "pair", "u": "v1", "v": "v2"}',
                '{"op": "top_k", "query": "v1", "k": 3}',
            ],
            "--trace-out",
            str(trace_path),
        )
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert all("trace_id" in r and r["trace_total_ms"] > 0.0 for r in responses)
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        closings = [e for e in events if e["type"] == "trace"]
        assert {c["trace"] for c in closings} == {r["trace_id"] for r in responses}
        span_names = {e["name"] for e in events if e["type"] == "span"}
        assert {"dispatch_wait", "epoch_pin", "execute"} <= span_names
        assert {"index_bound", "index_prune", "index_rescore"} <= span_names

    def test_trace_out_stream_is_deterministic_modulo_timing(self):
        """The scored responses under tracing equal the untraced stream once
        the (timing-valued) trace fields are stripped."""
        lines = [
            '{"op": "pair", "u": "v1", "v": "v2"}',
            '{"op": "top_k", "query": "v1", "k": 3}',
        ]
        _, plain, _ = self._run(lines)

        import tempfile, os

        handle, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(handle)
        try:
            _, traced, _ = self._run(lines, "--trace-out", path)
        finally:
            os.unlink(path)
        stripped = []
        for line in traced.splitlines():
            record = json.loads(line)
            record.pop("trace_id", None)
            record.pop("trace_total_ms", None)
            stripped.append(record)
        assert stripped == [json.loads(line) for line in plain.splitlines()]
