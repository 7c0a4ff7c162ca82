"""The workload process: one cold service driven from one client thread.

Usage (run by ``run.py``, one process per measurement)::

    python3 perfbench/bench_worker.py setup <spec.json> <out.json>
    python3 perfbench/bench_worker.py run <spec.json> <out.json>

``setup`` times one cold start: from reading the edge file to the first
answer.  ``run`` drives the workload for the spec's seconds, with the layer
spans of :mod:`bench_trace` installed when the spec asks for a traced run,
and writes timings, answers for the audit and counters to ``out.json``.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Dict, List, Optional, Tuple

from bench_inputs import SERVICE_SEED
from bench_trace import SpanRecorder, install_layer_spans, span_metrics

from repro.graph.io import read_edge_list
from repro.service import MutationLog, PairQuery, SimilarityService
from repro.service import runner

READ_WORKERS = 2


def _stamp_end(record: list):
    def done(_future) -> None:
        record[2] = time.perf_counter()

    return done


def _await_stamps(records: List[list]) -> None:
    """Done-callbacks run just after waiters wake; wait for the last stamps."""
    while any(record[2] is None for record in records):
        time.sleep(0.0005)


class MutationWriter:
    """Open-loop writer: one mutation log due every ``interval`` seconds."""

    def __init__(self, service, logs, start: float, interval: float, deadline: float):
        self.service = service
        self.logs = logs
        self.start = start
        self.interval = interval
        self.deadline = deadline
        self.sent: List[list] = []  # [log index, due, end, future, lateness]

    def _due(self) -> Optional[float]:
        index = len(self.sent)
        due = self.start + index * self.interval
        if index >= len(self.logs) or due >= self.deadline:
            return None
        return due

    def timeout(self) -> Optional[float]:
        due = self._due()
        return None if due is None else max(0.0, due - time.perf_counter())

    def poll(self) -> None:
        while True:
            due = self._due()
            if due is None or time.perf_counter() < due:
                return
            index = len(self.sent)
            record = [index, due, None, None, time.perf_counter() - due]
            future = self.service.submit_mutations(MutationLog.from_records(self.logs[index]))
            record[3] = future
            future.add_done_callback(_stamp_end(record))
            self.sent.append(record)


def closed_loop(service, requests, outstanding: int, deadline=None, writer=None):
    """Keep ``outstanding`` pair queries in flight; one client thread.

    Without a deadline every request is sent once (the warm-up pass);
    with one, requests are sent until it passes and the loop then drains.
    Returns ``[index, start, end, future]`` records in submission order.
    """
    records: List[list] = []
    pending = set()
    total = len(requests)

    def more() -> bool:
        if deadline is None:
            return len(records) < total
        return time.perf_counter() < deadline

    while True:
        while len(pending) < outstanding and more():
            u, v, method = requests[len(records) % total]
            record = [len(records), time.perf_counter(), None, None]
            future = service.submit(PairQuery(u, v, method=method))
            record[3] = future
            future.add_done_callback(_stamp_end(record))
            records.append(record)
            pending.add(future)
        if writer is not None:
            writer.poll()
        if not pending:
            return records
        timeout = writer.timeout() if writer is not None else None
        done, pending = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)


#: Counters that are levels, not totals: deltas keep the later value and
#: sums over jobs keep the largest.
GAUGES = ("bundle_store.bytes", "topk_index.bytes")


def _counters(stats: dict) -> Dict[str, object]:
    """The per-layer counters of one ``service_stats()`` poll."""
    tenant = stats["tenants"]["default"]
    store, index = tenant["store"], tenant["topk_index"]
    histograms = stats["metrics"]["histograms"]

    def histogram(name: str) -> List[float]:
        summary = histograms.get(name, {})
        return [summary.get("count", 0), summary.get("total", 0.0)]

    return {
        "bundle_store.hits": store["hits"],
        "bundle_store.lookups": store["hits"] + store["misses"],
        "bundle_store.evictions": store["evictions"],
        "bundle_store.invalidations": store["invalidations"],
        "bundle_store.bytes": tenant["store_bytes"],
        "topk_index.candidates_total": index["candidates_total"],
        "topk_index.candidates_rescored": index["candidates_rescored"],
        "topk_index.bytes": index.get("store", {}).get("bytes", 0),
        "service.batches": stats["batches"],
        "service.queries": stats["queries"],
        "service.dispatch_wait": histogram("service.dispatch_wait_ms"),
        "service.read_wait": histogram("service.read_wait_ms"),
    }


def _delta(before: Dict, after: Dict) -> Dict:
    out = {}
    for key, value in after.items():
        if key in GAUGES:
            out[key] = value
        elif isinstance(value, list):
            out[key] = [value[0] - before[key][0], value[1] - before[key][1]]
        else:
            out[key] = value - before[key]
    return out


def _sum(parts: List[Dict]) -> Dict:
    out = dict(parts[0])
    for part in parts[1:]:
        for key, value in part.items():
            if key in GAUGES:
                out[key] = max(out[key], value)
            elif isinstance(value, list):
                out[key] = [out[key][0] + value[0], out[key][1] + value[1]]
            else:
                out[key] += value
    return out


def _new_service(graph) -> SimilarityService:
    return SimilarityService(graph, seed=SERVICE_SEED, read_workers=READ_WORKERS)


def _runner_argv(spec: dict) -> List[str]:
    return [
        "--edges", spec["graph"],
        "--seed", str(SERVICE_SEED),
        "--read-workers", str(READ_WORKERS),
    ]


# -- setup -----------------------------------------------------------------------


def setup(spec: dict, inputs: dict) -> dict:
    if spec["workload"] == "topk-batch":
        out = io.StringIO()
        started = time.perf_counter()
        code = runner.run(
            _runner_argv(spec), stdin=io.StringIO(json.dumps(inputs["setup"])), stdout=out
        )
        elapsed = time.perf_counter() - started
        response = json.loads(out.getvalue().splitlines()[0])
        ok = code == 0 and "error" not in response
    else:
        u, v, method = inputs["setup"]
        started = time.perf_counter()
        graph = read_edge_list(spec["graph"])
        service = _new_service(graph)
        try:
            service.pair(u, v, method=method)
            elapsed = time.perf_counter() - started
        finally:
            service.close()
        ok = True
    return {"setup_s": elapsed, "ok": ok}


# -- serving workloads -----------------------------------------------------------


def _pair_answers(records: List[list]) -> Tuple[List[list], int]:
    answers, errors = [], 0
    for index, _start, _end, future in records:
        try:
            result = future.result()
        except Exception as error:  # counted, reported, never fatal
            print(f"query {index} failed: {error!r}", file=sys.stderr)
            errors += 1
            continue
        answers.append(
            [index, result.u, result.v, result.method, result.score,
             result.details.get("graph_version")]
        )
    return answers, errors


def serve(spec: dict, inputs: dict) -> dict:
    scale = spec["scale"]
    ingest = spec["workload"] == "ingest-serve"
    graph = read_edge_list(spec["graph"])
    with _new_service(graph) as service:
        warm = closed_loop(service, inputs["warmup"], scale["outstanding"])
        _, warm_errors = _pair_answers(warm)
        before = _counters(service.service_stats())
        started = time.perf_counter()
        deadline = started + spec["seconds"]
        writer = None
        if ingest:
            writer = MutationWriter(
                service, inputs["logs"], started, scale["mutation_interval_s"], deadline
            )
        records = closed_loop(
            service, inputs["requests"], scale["outstanding"], deadline, writer
        )
        if writer is not None:
            wait([record[3] for record in writer.sent])
            mutations = writer.sent
        else:
            mutations = []
        _await_stamps(records)
        ended = max(record[2] for record in records)
        after = _counters(service.service_stats())
        if not ingest:
            # Quiet-service mutation latency, after the timed window, one
            # log at a time (exception() waits without raising).
            for index, log in enumerate(inputs["logs"]):
                record = [index, time.perf_counter(), None, None, 0.0]
                record[3] = service.submit_mutations(MutationLog.from_records(log))
                record[3].add_done_callback(_stamp_end(record))
                record[3].exception()
                mutations.append(record)
        _await_stamps(mutations)
    answers, errors = _pair_answers(records)
    reports, mutation_errors = [], 0
    for index, _due, _end, future, _late in mutations:
        try:
            reports.append([index, future.result().version])
        except Exception as error:
            print(f"mutation {index} failed: {error!r}", file=sys.stderr)
            mutation_errors += 1
    return {
        "attempted": len(records) + len(mutations) + len(warm),
        "errors": errors + mutation_errors + warm_errors,
        "completed": len(answers),
        "window_s": ended - started,
        "window": [started, ended],
        "latencies_ms": [1000.0 * (end - start) for _, start, end, _ in records],
        "mutation_ms": [1000.0 * (end - due) for _, due, end, _, _ in mutations],
        "generator_late_ms": [1000.0 * late for *_, late in mutations] if ingest else [],
        "answers": answers,
        "reports": reports,
        "wrapped": len(records) > len(inputs["requests"]),
        "layers": _delta(before, after),
    }


# -- the batch workload ----------------------------------------------------------


class ClientObserver:
    """Times the runner's submissions at the service API, like a client would.

    The runner owns its service, so the observer wraps the submit methods
    on the class; it stays installed for the life of the worker process.
    """

    def __init__(self) -> None:
        self.queries: List[list] = []
        self.mutations: List[list] = []
        original_submit = SimilarityService.submit
        original_mutate = SimilarityService.submit_mutations
        observer = self

        def submit(service, query):
            record = [len(observer.queries), time.perf_counter(), None, None]
            future = original_submit(service, query)
            future.add_done_callback(_stamp_end(record))
            observer.queries.append(record)
            return future

        def submit_mutations(service, log, graph=None):
            record = [len(observer.mutations), time.perf_counter(), None, None]
            future = original_mutate(service, log, graph=graph)
            future.add_done_callback(_stamp_end(record))
            observer.mutations.append(record)
            return future

        SimilarityService.submit = submit
        SimilarityService.submit_mutations = submit_mutations


def batch(spec: dict, inputs: dict) -> dict:
    stream = inputs["stream"]
    text = "\n".join(json.dumps(line) for line in stream) + "\n"
    queries = [line for line in stream if line["op"] in ("top_k", "top_k_pairs")]
    observer = ClientObserver()
    responses_first: Optional[List[dict]] = None
    layer_parts = []
    errors = 0
    mismatched_jobs = 0
    jobs = 0
    started = time.perf_counter()
    # Whole jobs until the seconds are used up, and at least ``min_jobs``:
    # a replayed job must answer exactly as the first.
    while jobs < spec["min_jobs"] or time.perf_counter() - started < spec["seconds"]:
        out = io.StringIO()
        code = runner.run(_runner_argv(spec), stdin=io.StringIO(text), stdout=out)
        jobs += 1
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        if code != 0 or len(responses) != len(stream):
            raise RuntimeError(f"runner exited {code} with {len(responses)} responses")
        errors += sum(1 for response in responses if "error" in response)
        # Every job is a fresh service: its stats are the job's own totals.
        layer_parts.append(_counters(next(r["stats"] for r in responses if r["op"] == "stats")))
        answered = [r for r in responses if r["op"] in ("top_k", "top_k_pairs")]
        if responses_first is None:
            responses_first = answered
        elif answered != responses_first:
            mismatched_jobs += 1
    ended = time.perf_counter()
    _await_stamps(observer.queries + observer.mutations)
    latencies = [1000.0 * (end - start) for _, start, end, _ in observer.queries]
    return {
        "attempted": jobs * (len(queries) + len(inputs["logs"])),
        "errors": errors + mismatched_jobs * len(queries),
        "completed": jobs * len(queries),
        "jobs": jobs,
        "window_s": ended - started,
        "window": [started, ended],
        "latencies_ms": latencies,
        "mutation_ms": [1000.0 * (end - start) for _, start, end, _ in observer.mutations],
        "generator_late_ms": [],
        "requests": queries,
        "responses": responses_first,
        "layers": _sum(layer_parts),
    }


def main(argv: List[str]) -> int:
    mode, spec_path, out_path = argv[1:4]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(spec["inputs"], encoding="utf-8") as handle:
        inputs = json.load(handle)
    if mode == "setup":
        result = setup(spec, inputs)
    else:
        recorder = None
        if spec.get("trace"):
            recorder = SpanRecorder()
            install_layer_spans(recorder)
        workload = batch if spec["workload"] == "topk-batch" else serve
        result = workload(spec, inputs)
        if recorder is not None:
            result["spans"] = span_metrics(recorder, *result["window"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
