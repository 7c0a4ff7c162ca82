"""JSON-lines request runner behind ``python -m repro.service``.

Reads one JSON request per line, answers them through a
:class:`~repro.service.service.SimilarityService`, and writes one JSON
response per line in request order.  Consecutive *query* requests are
submitted together so they coalesce into batches and share walk bundles;
*control* requests (graph lifecycle, mutation ingest, stats) act as
barriers — every pending query is answered before the control op runs, so
the stream reads like a serial program.

Query requests (``method`` is optional, default ``"sampling"``; ``graph``
is an optional tenant name, default the graph loaded at startup;
``num_walks`` optionally overrides the tenant's walk count for that query
alone, subject to the tenant's ``max_num_walks`` admission cap; ``id`` is an
optional opaque value echoed into the response)::

    {"op": "pair", "u": "v1", "v": "v2"}
    {"op": "pair", "u": "v1", "v": "v2", "num_walks": 200}
    {"op": "pair", "u": "v1", "v": "v2", "accuracy": 0.02}
    {"op": "top_k", "query": "v1", "k": 5, "candidates": ["v2", "v3"]}
    {"op": "top_k_pairs", "k": 3, "pairs": [["v1", "v2"], ["v2", "v3"]]}

``accuracy`` (pair queries, ``"sampling"`` method only) switches the query
to adaptive fidelity: the walk bundle grows in deterministic shard
increments until the confidence-interval half-width meets the target (or
the tenant's ``max_num_walks`` caps it), and the response carries
``ci_low`` / ``ci_high`` / ``walks_used``.

Every query response — ``pair``, ``top_k``, ``top_k_pairs``, for every
method — carries the ``epoch`` and ``graph_version`` the answer was pinned
to: under concurrent ingest (``--read-workers`` > 1 with mutations in
flight) this names the exact graph state the scores are bit-identical to.
Top-k answers served through the epoch-scoped walk-fingerprint index
additionally carry ``candidates_total`` / ``candidates_rescored`` (both
deterministic).  Whether a query uses the index is decided by what it
covers — top-k queries over at least half the graph's vertices do, thin
candidate slices are scanned — and by the index byte budget
(``--topk-index-budget-mb``); the rankings are identical either way.

Control requests::

    {"op": "create_graph", "graph": "g2", "edges": [["a", "b", 0.9]],
     "params": {"num_walks": 500, "seed": 3}}
    {"op": "mutate", "graph": "g2",
     "ops": [{"op": "add_edge", "u": "a", "v": "c", "probability": 0.4},
             {"op": "remove_edge", "u": "a", "v": "b"},
             {"op": "update_probability", "u": "a", "v": "c", "probability": 0.7}]}
    {"op": "drop_graph", "graph": "g2"}
    {"op": "stats"}
    {"op": "metrics"}

``create_graph`` accepts ``edges`` (``[u, v, probability]`` triples, applied
as directed arcs), optional ``vertices`` (isolated vertices to pre-register)
and optional ``params`` overriding per-tenant engine configuration (the
:class:`~repro.service.tenancy.TenantConfig` fields).  No field is coerced:
integers (``k``, ``num_walks``, ``seed``, …) must be JSON integers, or null
where the config field is optional; probabilities must be JSON numbers;
``edges``, ``vertices``, ``ops``, ``candidates`` and ``pairs`` must be JSON
arrays.  Anything else is answered with an ``error`` line naming the field.
``mutate`` applies its ops as one validated
:class:`~repro.service.tenancy.MutationLog` batch: the tenant's graph
version is bumped, only its cached bundles are dropped, and the CSR snapshot
is patched incrementally.  ``stats`` returns the service's batching counters
plus the per-tenant bundle-store hit/miss/eviction stats.  ``metrics``
returns the observability registry snapshot (counters / gauges / latency
histogram summaries — see ``docs/OBSERVABILITY.md``).

With ``--trace-out FILE`` every request is traced: span events (dispatch
wait, batch coalescing, epoch pin, executor stages, index bound / prune /
rescore) are appended to ``FILE`` as JSONL, and each query response gains
``trace_id`` / ``trace_total_ms``.  The trace fields appear *only* under
``--trace-out``, so the default response stream stays byte-stable.
``--no-metrics`` turns the metrics registry off entirely (the zero-overhead
baseline; ``stats`` still reports the batching counters' shape with a
disabled registry snapshot).

Admission control (``--max-qps`` / ``--max-inflight`` /
``--max-queue-depth``) sheds over-quota requests with a structured error —
``{"op": ..., "error": "...", "code": "overloaded", "retry_after_ms": ...}``
— instead of queuing them; the stream keeps serving.  Graceful degradation
(``--degrade-queue-depth`` / ``--degrade-fraction``) answers under queue
pressure at a reduced walk count, flagged by ``degraded: true`` plus the
achieved ``walks_used``.  Both field sets appear *only* when the feature
triggers, so ordinary response streams stay byte-stable.

Responses mirror the request ``op``; a failed request yields
``{"op": ..., "error": "..."}`` without aborting the rest of the stream.

Example::

    printf '%s\n' '{"op": "pair", "u": "v1", "v": "v2"}' \
        '{"op": "top_k", "query": "v1", "k": 3}' \
        | python -m repro.service --graph example --seed 7
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, List, Optional, get_type_hints

from repro.datasets.registry import load_dataset
from repro.graph.io import read_edge_list
from repro.graph.uncertain_graph import UncertainGraph, example_graph
from repro.obs import Observability
from repro.core.batch_walks import DEFAULT_SHARD_SIZE
from repro.core.bundle_store import DEFAULT_BUDGET_BYTES
from repro.service.service import (
    PairQuery,
    SimilarityService,
    TopKPairsQuery,
    TopKVertexQuery,
)
from repro.service.tenancy import MutationLog, TenantConfig
from repro.utils.errors import InvalidParameterError

#: Request ops handled synchronously, as barriers between query runs.
CONTROL_OPS = ("create_graph", "mutate", "drop_graph", "stats", "metrics")

#: The declared type of every ``create_graph`` param (a TenantConfig field).
_PARAM_TYPES = get_type_hints(TenantConfig)


def _build_graph(args: argparse.Namespace) -> UncertainGraph:
    if args.edges is not None:
        return read_edge_list(args.edges)
    if args.graph == "example":
        return example_graph()
    return load_dataset(args.graph)


def _require(record: dict, field: str):
    try:
        return record[field]
    except KeyError:
        raise ValueError(f"missing required field {field!r}") from None


def _integer(field: str, value):
    """``value`` if it is a JSON integer; a bool, float or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _number(field: str, value):
    """``value`` if it is a JSON number; a bool or string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {field!r} must be a number, got {value!r}")
    return value


def _array(field: str, value, item_length: Optional[int] = None) -> list:
    """``value`` if it is a JSON array (of ``item_length``-long arrays)."""
    if not isinstance(value, list):
        raise ValueError(f"field {field!r} must be an array, got {value!r}")
    if item_length is not None:
        for item in value:
            if not isinstance(item, list) or len(item) != item_length:
                raise ValueError(
                    f"field {field!r} items must be arrays of length "
                    f"{item_length}, got {item!r}"
                )
    return value


def _parse_query(record: dict):
    op = record.get("op")
    method = record.get("method", "sampling")
    graph = record.get("graph")
    num_walks = record.get("num_walks")
    if num_walks is not None:
        num_walks = _integer("num_walks", num_walks)
    if op == "pair":
        accuracy = record.get("accuracy")
        return PairQuery(
            _require(record, "u"),
            _require(record, "v"),
            method=method,
            graph=graph,
            num_walks=num_walks,
            accuracy=float(accuracy) if accuracy is not None else None,
        )
    if op == "top_k":
        candidates = record.get("candidates")
        return TopKVertexQuery(
            _require(record, "query"),
            _integer("k", _require(record, "k")),
            tuple(_array("candidates", candidates)) if candidates is not None else None,
            method=method,
            graph=graph,
            num_walks=num_walks,
        )
    if op == "top_k_pairs":
        pairs = record.get("pairs")
        return TopKPairsQuery(
            _integer("k", _require(record, "k")),
            tuple((u, v) for u, v in _array("pairs", pairs, 2))
            if pairs is not None
            else None,
            method=method,
            graph=graph,
            num_walks=num_walks,
        )
    raise ValueError(
        f"unknown op {op!r}; expected pair, top_k, top_k_pairs, "
        f"or one of {', '.join(CONTROL_OPS)}"
    )


def _base_response(record: dict) -> dict:
    response = {"op": record.get("op")}
    if "id" in record:
        response["id"] = record["id"]
    return response


def _render_response(record: dict, query, outcome) -> dict:
    response = _base_response(record)
    if isinstance(query, PairQuery):
        response.update(u=query.u, v=query.v, score=outcome.score)
        details = getattr(outcome, "details", None) or {}
        if "ci_low" in details:
            # Adaptive-fidelity answer: interval + achieved walk count.
            response.update(
                ci_low=details["ci_low"],
                ci_high=details["ci_high"],
                walks_used=details["walks_used"],
            )
        if details.get("degraded"):
            response.update(degraded=True, walks_used=details["walks_used"])
        if "epoch" in details:
            # Which immutable snapshot answered: deterministic across runs
            # (epoch ids count publications), so pinned-output tests hold.
            response.update(
                epoch=details["epoch"], graph_version=details["graph_version"]
            )
        if "trace_id" in details:
            response.update(
                trace_id=details["trace_id"],
                trace_total_ms=details["trace_total_ms"],
            )
    elif isinstance(query, TopKVertexQuery):
        response.update(
            query=query.query,
            results=[[vertex, score] for vertex, score in outcome],
        )
        _attach_epoch(response, outcome)
    else:
        response["results"] = [[u, v, score] for u, v, score in outcome]
        _attach_epoch(response, outcome)
    return response


def _attach_epoch(response: dict, outcome) -> None:
    """Surface the epoch provenance a TopKResult carries (if any).

    Index-pruned answers also carry ``candidates_total`` /
    ``candidates_rescored`` — deterministic counts (prune decisions depend
    only on the keyed walks and the candidate set), so they are safe in the
    pinned response stream.  ``index_build_ms`` is a timing and is
    deliberately *not* surfaced here; read it from ``service_stats``.
    """
    epoch = getattr(outcome, "epoch", None)
    if epoch:
        response.update(
            epoch=epoch, graph_version=getattr(outcome, "graph_version", None)
        )
    rescored = getattr(outcome, "candidates_rescored", None)
    if rescored is not None:
        response.update(
            candidates_total=getattr(outcome, "candidates_total", None),
            candidates_rescored=rescored,
        )
    if getattr(outcome, "degraded", None):
        response.update(
            degraded=True, walks_used=getattr(outcome, "walks_used", None)
        )
    # Present only when the service runs with tracing on (--trace-out), so
    # the pinned default response stream is untouched.
    trace_id = getattr(outcome, "trace_id", None)
    if trace_id is not None:
        response.update(
            trace_id=trace_id,
            trace_total_ms=getattr(outcome, "trace_total_ms", None),
        )


def _render_error(record: dict, error: object) -> dict:
    response = _base_response(record)
    response["error"] = str(error)
    # Structured error surface: ReproError subclasses carry a machine code
    # (e.g. "overloaded"), and admission rejections a retry hint.
    code = getattr(error, "code", None)
    if code is not None:
        response["code"] = code
    retry_after_ms = getattr(error, "retry_after_ms", None)
    if retry_after_ms is not None:
        response["retry_after_ms"] = retry_after_ms
    return response


def _run_control(service: SimilarityService, record: dict) -> dict:
    """Execute one control request synchronously and render its response."""
    op = record["op"]
    response = _base_response(record)
    if op == "stats":
        response["stats"] = service.service_stats()
        return response
    if op == "metrics":
        response["metrics"] = service.obs.metrics.snapshot()
        response["tracing"] = service.obs.tracer.enabled
        return response
    name = _require(record, "graph")
    if op == "create_graph":
        graph = UncertainGraph(vertices=_array("vertices", record.get("vertices", [])))
        for u, v, probability in _array("edges", record.get("edges", []), 3):
            graph.add_arc(u, v, float(_number("edges probability", probability)))
        params = record.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("params must be an object of tenant config fields")
        for field, value in params.items():
            # Numeric fields must be JSON numbers; Optional ones also take null.
            kind = _PARAM_TYPES.get(field)
            if kind is int or (kind == Optional[int] and value is not None):
                _integer(f"params.{field}", value)
            elif kind is float or (kind == Optional[float] and value is not None):
                _number(f"params.{field}", value)
        tenant = service.create_graph(name, graph, **params)
        response.update(
            graph=name,
            num_vertices=tenant.graph.num_vertices,
            num_arcs=tenant.graph.num_arcs,
        )
        return response
    if op == "mutate":
        log = MutationLog.from_records(_array("ops", _require(record, "ops")))
        report = service.mutate(log, graph=name)
        response.update(report.as_dict())
        return response
    # drop_graph
    service.drop_graph(name)
    response.update(graph=name, dropped=True)
    return response


def run(argv: Optional[List[str]] = None, stdin: Optional[IO[str]] = None,
        stdout: Optional[IO[str]] = None, stderr: Optional[IO[str]] = None) -> int:
    """Entry point of ``python -m repro.service``."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve JSON-lines similarity queries over uncertain graphs.",
    )
    parser.add_argument(
        "--graph",
        default="example",
        help="dataset name from the registry, or 'example' (default); becomes "
        "the 'default' tenant",
    )
    parser.add_argument(
        "--edges", default=None, help="load the graph from a weighted edge-list file"
    )
    parser.add_argument("--input", default="-", help="requests file ('-' = stdin)")
    parser.add_argument("--output", default="-", help="responses file ('-' = stdout)")
    parser.add_argument("--seed", type=int, default=7, help="deterministic sampling seed")
    parser.add_argument("--decay", type=float, default=0.6)
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--num-walks", type=int, default=1000)
    parser.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE)
    parser.add_argument(
        "--read-workers",
        type=int,
        default=1,
        help="size of the read pool answering query batches (answers are "
        "bit-identical for every value)",
    )
    parser.add_argument(
        "--max-num-walks",
        type=int,
        default=None,
        help="admission cap on per-query num_walks overrides (default: none)",
    )
    parser.add_argument(
        "--max-qps",
        type=float,
        default=None,
        help="admission quota: sustained queries per second of the default "
        "tenant; over-quota requests are shed with code 'overloaded' "
        "(default: no quota)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission quota: concurrently admitted-but-unfinished queries "
        "of the default tenant (default: no quota)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="admission quota: admitted-but-undispatched queries of the "
        "default tenant (default: no quota)",
    )
    parser.add_argument(
        "--degrade-queue-depth",
        type=int,
        default=None,
        help="dispatch-queue depth at which sampled-method answers degrade "
        "to a reduced walk count, flagged degraded: true (default: never)",
    )
    parser.add_argument(
        "--degrade-fraction",
        type=float,
        default=0.5,
        help="fraction of the requested walk count degraded answers keep, "
        "rounded down to whole shards (default: 0.5)",
    )
    parser.add_argument(
        "--store-budget-mb",
        type=float,
        default=DEFAULT_BUDGET_BYTES / (1024 * 1024),
        help="per-tenant walk-bundle store budget in MiB (0 = unbounded)",
    )
    parser.add_argument(
        "--topk-index-budget-mb",
        type=float,
        default=None,
        help="per-tenant byte budget of the epoch-scoped top-k index "
        "artifacts in MiB (0 = unbounded; default: the library default)",
    )
    parser.add_argument(
        "--verify-mutations",
        action="store_true",
        help="cross-check every incremental snapshot rebuild against a full "
        "rebuild (slow; correctness canary)",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print service stats to stderr at the end"
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="trace every request: append span/trace JSONL events to FILE "
        "and attach trace_id / trace_total_ms to query responses",
    )
    parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the metrics registry entirely (zero-overhead baseline)",
    )
    args = parser.parse_args(argv)

    try:
        graph = _build_graph(args)
    except Exception as error:
        print(f"error: could not load graph: {error}", file=stderr)
        return 2

    for flag, megabytes in (
        ("--store-budget-mb", args.store_budget_mb),
        ("--topk-index-budget-mb", args.topk_index_budget_mb),
    ):
        if megabytes is not None and megabytes < 0:
            print(f"error: {flag} must be >= 0, got {megabytes:g}", file=stderr)
            return 2

    if args.input == "-":
        lines = stdin.read().splitlines()
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()

    budget = None if args.store_budget_mb == 0 else int(args.store_budget_mb * 1024 * 1024)
    index_kwargs = {}
    if args.topk_index_budget_mb is not None:
        index_kwargs["topk_index_budget_bytes"] = (
            None
            if args.topk_index_budget_mb == 0
            else int(args.topk_index_budget_mb * 1024 * 1024)
        )
    trace_handle: Optional[IO[str]] = None
    if args.trace_out is not None:
        trace_handle = open(args.trace_out, "w", encoding="utf-8")

        def trace_sink(event: dict) -> None:
            # Tracer._emit serialises calls under its lock, so lines from
            # concurrent read workers never interleave.
            trace_handle.write(json.dumps(event) + "\n")

    else:
        trace_sink = None
    obs = Observability(
        metrics=not args.no_metrics,
        tracing=trace_handle is not None,
        trace_sink=trace_sink,
    )

    try:
        service = SimilarityService(
            graph,
            decay=args.decay,
            iterations=args.iterations,
            num_walks=args.num_walks,
            seed=args.seed,
            shard_size=args.shard_size,
            store_budget_bytes=budget,
            read_workers=args.read_workers,
            max_num_walks=args.max_num_walks,
            max_qps=args.max_qps,
            max_inflight=args.max_inflight,
            max_queue_depth=args.max_queue_depth,
            degrade_queue_depth=args.degrade_queue_depth,
            degrade_fraction=args.degrade_fraction,
            verify_mutations=args.verify_mutations,
            obs=obs,
            **index_kwargs,
        )
    except InvalidParameterError as error:
        if trace_handle is not None:
            trace_handle.close()
        print(f"error: {error}", file=stderr)
        return 2

    responses: List[str] = []
    with service:
        # (record, query, future-or-error) triples of the current query run;
        # control ops flush the run so responses keep stream order and every
        # query before a mutation is answered on the pre-mutation graph.
        pending: List[tuple] = []

        def flush() -> None:
            for record, query, outcome in pending:
                if query is None:
                    responses.append(json.dumps(_render_error(record, outcome)))
                    continue
                try:
                    result = outcome.result()
                except Exception as error:
                    responses.append(json.dumps(_render_error(record, error)))
                    continue
                responses.append(json.dumps(_render_response(record, query, result)))
            pending.clear()

        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except Exception as error:
                pending.append(({}, None, str(error)))
                continue
            if not isinstance(record, dict):
                pending.append(({}, None, "request must be a JSON object"))
                continue
            if record.get("op") in CONTROL_OPS:
                flush()
                try:
                    response = _run_control(service, record)
                except Exception as error:
                    response = _render_error(record, error)
                responses.append(json.dumps(response))
                continue
            try:
                query = _parse_query(record)
            except Exception as error:
                pending.append((record, None, str(error)))
                continue
            try:
                pending.append((record, query, service.submit(query)))
            except Exception as error:
                # Synchronous rejection (admission control): render the
                # structured error in stream order, keep serving.
                pending.append((record, None, error))
        flush()

        if args.stats:
            print(json.dumps(service.service_stats(), indent=2), file=stderr)

    if trace_handle is not None:
        # The service is closed (all traces finished and emitted) before the
        # sink goes away.
        trace_handle.close()

    text = "\n".join(responses) + ("\n" if responses else "")
    if args.output == "-":
        stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0
