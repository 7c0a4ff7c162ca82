"""Batched similarity query service on top of the method executors.

:class:`SimilarityService` is the serving layer of the library: callers
submit pair, top-k-pairs, and top-k-for-vertex queries; a dispatcher thread
drains the submission queue into batches, and a pool of *read workers*
answers them.  Every batch routes through the snapshot-scoped
:class:`~repro.core.executors.MethodExecutor` registry — *all four* paper
methods, not just sampling — so each method shares its expensive stage per
unique endpoint of the batch: walk bundles for the sampled stages (resolved
through the tenant's :class:`~repro.core.bundle_store.WalkBundleStore`
and sampled in one keyed sweep by the
:class:`~repro.core.batch_walks.ShardedWalkSampler` on a miss), exact
single-source transition distributions for the Baseline / SR-TS / SR-SP
prefix stages, and SR-SP propagation tables per endpoint side.  Bundles
persist across batches until LRU eviction, and across mutation-log ingest
too (repaired by resampling only the walks a mutation touched), so a
sustained workload converges to sampling each hot endpoint once.

One service process hosts many named graphs — *tenants* — through a
:class:`~repro.service.tenancy.GraphRegistry`: every query carries an
optional ``graph=`` field naming its tenant (``None`` routes to the default
tenant), batches are split per tenant, and each tenant answers from its own
bundle store, sampler scheme, and engine parameters.

Reads and writes never block each other.  Every tenant batch pins an
immutable :class:`~repro.service.epoch.EngineSnapshot` (a refcounted epoch
lease, see :mod:`repro.service.epoch`) and answers entirely from it — the
executors run the exact algorithms on the snapshot's pinned CSR view, so no
method ever reads the mutable dict graph or serializes with ingest.
Mutation batches (:class:`~repro.service.tenancy.MutationLog`, ingested via
:meth:`SimilarityService.mutate`) are applied by a dedicated single-writer
thread that publishes the successor epoch atomically.  Submission order is
still honoured per tenant: a query submitted *after* a mutation waits for
that mutation's epoch (a per-tenant barrier), while queries submitted
before it — and all queries of *other* tenants — proceed on their pinned
epochs even while a large mutation batch is mid-apply.

Because all executor randomness is keyed — walk bundles from ``(seed,
vertex, twin, shard)`` world keys, SR-SP filters from per-walk-count seed
streams — the service's answers are bit-identical across batch
compositions and ``read_workers`` settings: for every method, every
answer equals a standalone :class:`~repro.core.engine.SimRankEngine` built
at the graph version its epoch pinned with the tenant's ``seed`` /
``shard_size``, and an evicted-then-resampled bundle reproduces exactly.

Queries default to the paper's Sampling estimator at the tenant's
configured walk count; a per-query ``num_walks=`` override (validated
against the tenant's ``max_num_walks`` admission cap, and against the
method's executor — the exact ``baseline`` rejects it with a clear error
instead of silently ignoring it) trades accuracy for latency per request.
Top-k results are returned as :class:`TopKResult` — a plain list of scored
tuples that additionally carries the ``epoch`` / ``graph_version`` that
answered it.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.batch_walks import DEFAULT_SHARD_SIZE, ShardedWalkSampler
from repro.core.bundle_store import DEFAULT_BUDGET_BYTES, WalkBundleStore
from repro.core.engine import SimRankEngine
from repro.core.executors import EngineSnapshot, MethodExecutor, executor_for
from repro.core.simrank import (
    DEFAULT_DECAY,
    DEFAULT_ITERATIONS,
    SimRankResult,
)
from repro.core.sampling import DEFAULT_NUM_WALKS
from repro.core.topk import (
    all_pairs_top_k,
    checked_candidates,
    pair_top_k,
    top_k_of,
    vertex_top_k,
)
from repro.core.topk_index import DEFAULT_INDEX_BUDGET_BYTES, TopKIndex, snapshot_index
from repro.graph.uncertain_graph import UncertainGraph
from repro.obs import Gauge, MetricsRegistry, Observability, QueryTrace
from repro.service.epoch import EpochLease
from repro.service.qos import AdmissionController, OverloadedError
from repro.service.tenancy import (
    DEFAULT_GRAPH_NAME,
    GraphRegistry,
    GraphTenant,
    MutationLog,
    MutationReport,
    TenantConfig,
)
from repro.utils.errors import InvalidParameterError

Vertex = Hashable
ScoredPair = Tuple[Vertex, Vertex, float]
ScoredVertex = Tuple[Vertex, float]

class TopKResult(list):
    """A ranked top-k answer plus the epoch that produced it.

    Behaves exactly like the plain list of scored tuples older clients
    expect (equality, iteration, indexing); the provenance of the answer —
    which immutable snapshot scored it — rides along as attributes and is
    surfaced as the ``epoch`` / ``graph_version`` response fields of the
    JSONL runner.  Answers served through the top-k index additionally
    carry pruning effectiveness: ``candidates_total`` / ``candidates_rescored``
    (deterministic, surfaced in runner responses) and ``index_build_ms``
    (a timing — surfaced only through ``service_stats``, never in the
    pinned runner response stream).  All three stay ``None`` on the scan
    path.
    """

    __slots__ = (
        "epoch",
        "graph_version",
        "graph",
        "candidates_total",
        "candidates_rescored",
        "index_build_ms",
        "trace_id",
        "trace_total_ms",
        "degraded",
        "walks_used",
    )

    def __init__(
        self,
        items: Sequence,
        epoch: Optional[int] = None,
        graph_version: Optional[int] = None,
        graph: Optional[str] = None,
        candidates_total: Optional[int] = None,
        candidates_rescored: Optional[int] = None,
        index_build_ms: Optional[float] = None,
    ) -> None:
        super().__init__(items)
        self.epoch = epoch
        self.graph_version = graph_version
        self.graph = graph
        self.candidates_total = candidates_total
        self.candidates_rescored = candidates_rescored
        self.index_build_ms = index_build_ms
        # Stamped by the service when tracing is on: which trace (and how
        # long end to end) produced this answer.  Timings, so they never
        # enter the pinned deterministic runner stream unless tracing was
        # explicitly requested.
        self.trace_id: Optional[int] = None
        self.trace_total_ms: Optional[float] = None
        # Graceful-degradation provenance: set only when the service answered
        # this query at a reduced walk count under queue pressure, so
        # non-degraded response streams stay bit-identical.
        self.degraded: Optional[bool] = None
        self.walks_used: Optional[int] = None


@dataclass(frozen=True)
class PairQuery:
    """Similarity of one vertex pair.

    ``graph`` names the tenant to answer from; ``None`` routes to the
    service's default tenant.  ``num_walks`` overrides the tenant's walk
    count for this query only, subject to the tenant's ``max_num_walks``
    admission cap (likewise for the other query types).

    ``accuracy`` switches the query to *adaptive fidelity* (``"sampling"``
    method only): instead of a fixed walk count, the service grows the walk
    bundle in deterministic shard increments until the half-width of the
    normal-approximation confidence interval of the estimate drops to
    ``accuracy`` (or the tenant's ``max_num_walks`` cap stops it), and the
    answer carries ``ci_low`` / ``ci_high`` / ``walks_used`` in its details.
    ``num_walks`` then sets the starting walk count of the search.
    """

    u: Vertex
    v: Vertex
    method: str = "sampling"
    graph: Optional[str] = None
    num_walks: Optional[int] = None
    accuracy: Optional[float] = None


@dataclass(frozen=True)
class TopKPairsQuery:
    """The ``k`` most similar pairs of a candidate pair set."""

    k: int
    candidate_pairs: Optional[Tuple[Tuple[Vertex, Vertex], ...]] = None
    method: str = "sampling"
    graph: Optional[str] = None
    num_walks: Optional[int] = None


@dataclass(frozen=True)
class TopKVertexQuery:
    """The ``k`` vertices most similar to ``query``."""

    query: Vertex
    k: int
    candidates: Optional[Tuple[Vertex, ...]] = None
    method: str = "sampling"
    graph: Optional[str] = None
    num_walks: Optional[int] = None


Query = Union[PairQuery, TopKPairsQuery, TopKVertexQuery]


@dataclass
class _QueryItem:
    """One submitted query travelling the dispatch pipeline.

    Carries its own trace (``None`` when tracing is off) and the clock
    stamps the phase spans derive from.  Because the trace rides the item —
    never a thread-local — span attribution is structurally per query: any
    read worker may pick the item up and the spans still land on the right
    trace.  ``finished`` guards the one race (a worker and an error path
    both completing the query) so totals are observed exactly once.
    """

    query: Query
    future: "Future"
    trace: Optional[QueryTrace] = None
    submitted: float = 0.0
    dequeued: float = 0.0
    finished: bool = False
    # Admission bookkeeping: the tenant name this item holds a quota
    # reservation on (``None`` for quota-less tenants), and whether its
    # queued slot was already returned by the dispatcher.  ``_finish_query``
    # pairs every admit with exactly one release.
    admitted: Optional[str] = None
    admission_dispatched: bool = False


@dataclass
class _MutationItem:
    """A mutation-ingest work item routed to the writer.

    ``future`` is the client's handle; ``barrier`` is the *internal* Future
    later queries park on (see ``_barriers``).  They must be distinct:
    submission is commitment, so a client cancelling its handle must not
    release queries ordered behind the ingest before the writer has actually
    published the new epoch.  Only the writer resolves the barrier.
    """

    graph: str
    log: MutationLog
    future: "Future"
    barrier: "Future" = field(default_factory=Future)
    trace: Optional[QueryTrace] = None
    submitted: float = 0.0


_SHUTDOWN = object()


@dataclass
class _QueryPlan:
    """One validated query, reduced to the pairs its executor must score.

    ``kind`` is ``"pair"`` / ``"topk_vertex"`` / ``"topk_pairs"`` /
    ``"all_pairs"`` (the streamed default pair space); ``walks`` is the
    admitted per-query ``num_walks`` override (``None`` = tenant default,
    part of the executor-group key so mixed-fidelity batches never mix
    bundles); ``items`` holds the ranked candidates (vertices or pairs) in
    submission order for deterministic tie-breaking, and ``query`` the
    query vertex of a ``"topk_vertex"`` plan.
    """

    kind: str
    method: str
    walks: Optional[int]
    pairs: List[Tuple[Vertex, Vertex]] = field(default_factory=list)
    items: list = field(default_factory=list)
    k: int = 0
    query: Optional[Vertex] = None
    # Graceful degradation: this plan's walk count was truncated under queue
    # pressure; ``walks_used`` is the achieved count stamped on the answer.
    degraded: bool = False
    walks_used: Optional[int] = None
    # Adaptive fidelity: the CI half-width target of an ``accuracy=`` pair
    # query (answered individually through ``run_adaptive``, never grouped).
    accuracy: Optional[float] = None


class ServiceStats:
    """Aggregate counters of one service instance, backed by the registry.

    Since PR 7 this is a *view* over :class:`repro.obs.MetricsRegistry`
    instruments (``service.queries`` / ``service.batches`` /
    ``service.mutations`` counters, the ``service.largest_batch``
    high-water gauge, and one ``service.queries_by_kind.<Kind>`` counter
    per query type) instead of a hand-rolled counter bag; :meth:`snapshot`
    keeps the exact dict shape older clients read.  With metrics disabled
    the instruments are the shared no-op singletons, so every count reads
    as zero — the documented trade of ``Observability.disabled()``.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._queries = self._metrics.counter("service.queries")
        self._batches = self._metrics.counter("service.batches")
        self._mutations = self._metrics.counter("service.mutations")
        self._largest_batch = self._metrics.gauge("service.largest_batch")
        self._by_kind: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _kind_counter(self, kind: str):
        counter = self._by_kind.get(kind)
        if counter is None:
            with self._lock:
                counter = self._by_kind.get(kind)
                if counter is None:
                    counter = self._metrics.counter(f"service.queries_by_kind.{kind}")
                    self._by_kind[kind] = counter
        return counter

    def record_batch(self, batch: Sequence[Query]) -> None:
        self._batches.inc()
        self._queries.inc(len(batch))
        self._largest_batch.set_max(len(batch))
        for query in batch:
            self._kind_counter(type(query).__name__).inc()

    def record_mutation(self) -> None:
        self._mutations.inc()

    @property
    def queries(self) -> int:
        return int(self._queries.get())

    @property
    def batches(self) -> int:
        return int(self._batches.get())

    @property
    def largest_batch(self) -> int:
        return int(self._largest_batch.get())

    @property
    def mutations(self) -> int:
        return int(self._mutations.get())

    @property
    def queries_by_kind(self) -> Dict[str, int]:
        with self._lock:
            kinds = list(self._by_kind.items())
        return {kind: int(counter.get()) for kind, counter in kinds}

    def snapshot(self) -> Dict[str, object]:
        """A point-in-time copy of every counter, in the PR-2 dict shape."""
        return {
            "queries": self.queries,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mutations": self.mutations,
            "queries_by_kind": self.queries_by_kind,
        }


class SimilarityService:
    """Batched, sharded similarity query front end for one or many graphs.

    Parameters
    ----------
    graph:
        Single-tenant convenience: the uncertain graph to serve.  It becomes
        the ``default_graph`` tenant of an internally owned
        :class:`~repro.service.tenancy.GraphRegistry`.  Direct mutations
        between batches are picked up automatically (the next batch publishes
        a fresh epoch); batched ingest goes through :meth:`mutate`.
    decay, iterations, num_walks:
        Default engine parameters of tenants created by this service;
        ``num_walks`` is the per-tenant default walk count (queries may
        override it per request).
    max_num_walks:
        Admission cap on per-query ``num_walks`` overrides of tenants
        created by this service (``None`` = uncapped).  Also caps the walk
        growth of adaptive ``accuracy=`` queries.
    max_qps, max_inflight, max_queue_depth:
        Per-tenant admission quotas of tenants created by this service
        (all default ``None`` = no quota).  Enforced synchronously at
        :meth:`submit` by an :class:`~repro.service.qos.AdmissionController`:
        over-quota submissions raise
        :class:`~repro.service.qos.OverloadedError` (machine code
        ``"overloaded"``, ``retry_after_ms`` hint) instead of growing the
        queue.  Tenants without quotas bypass admission entirely.
    degrade_queue_depth, degrade_fraction:
        Graceful degradation under overload: when the dispatch queue is at
        least ``degrade_queue_depth`` deep at dispatch time (``None`` =
        never degrade), sampled-method queries of that batch are answered
        at ``degrade_fraction`` of their requested walk count (rounded down
        to whole shards, deterministic truncation of the keyed scheme) and
        their answers carry ``degraded: True`` plus the achieved
        ``walks_used``.
    seed:
        Base seed of the deterministic sharded sampling scheme (and of the
        engine used by non-sampling fallback methods).
    shard_size:
        Walks per shard of the keyed sampling scheme — see
        :class:`~repro.core.batch_walks.ShardedWalkSampler`.  Part of the
        scheme: it decides which walks are sampled.
    store_budget_bytes:
        Byte budget of each tenant's walk-bundle store (``None`` =
        unbounded).
    max_batch_size, batch_wait_seconds:
        Coalescing knobs of the dispatcher: a batch closes when it reaches
        ``max_batch_size`` queries or the wait window expires with an empty
        queue.
    read_workers:
        Size of the read pool answering dispatched tenant batches.  Results
        are bit-identical for every value; larger pools let batches of
        different tenants (or consecutive batches of one tenant) overlap.
    registry:
        Host an existing :class:`~repro.service.tenancy.GraphRegistry`
        instead of (exclusive with) ``graph``.  The registry is *not* closed
        by :meth:`close` — its owner keeps control of tenant lifecycle.
    default_graph:
        Tenant name that queries with ``graph=None`` route to.
    verify_mutations:
        Cross-check every incremental snapshot rebuild triggered by
        :meth:`mutate` against a full rebuild (slow; a correctness canary).
    obs:
        The :class:`repro.obs.Observability` bundle: metrics registry +
        tracer.  Defaults to ``Observability()`` — metrics on, tracing off.
        Pass ``Observability.disabled()`` for the zero-overhead baseline
        (``service_stats`` counters then read as zero), or
        ``Observability(tracing=True, trace_sink=...)`` to export per-query
        JSONL trace spans (see docs/OBSERVABILITY.md).

    Use as a context manager (or call :meth:`close`) to stop the worker
    threads.
    """

    def __init__(
        self,
        graph: Optional[UncertainGraph] = None,
        decay: float = DEFAULT_DECAY,
        iterations: int = DEFAULT_ITERATIONS,
        num_walks: int = DEFAULT_NUM_WALKS,
        seed: Optional[int] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        store_budget_bytes: Optional[int] = DEFAULT_BUDGET_BYTES,
        max_batch_size: int = 64,
        batch_wait_seconds: float = 0.002,
        read_workers: int = 1,
        max_num_walks: Optional[int] = None,
        max_qps: Optional[float] = None,
        max_inflight: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        degrade_queue_depth: Optional[int] = None,
        degrade_fraction: float = 0.5,
        registry: Optional[GraphRegistry] = None,
        default_graph: str = DEFAULT_GRAPH_NAME,
        verify_mutations: bool = False,
        topk_index_budget_bytes: Optional[int] = DEFAULT_INDEX_BUDGET_BYTES,
        obs: Optional[Observability] = None,
    ) -> None:
        if max_batch_size < 1:
            raise InvalidParameterError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if batch_wait_seconds < 0:
            raise InvalidParameterError(
                f"batch_wait_seconds must be >= 0, got {batch_wait_seconds}"
            )
        if read_workers < 1:
            raise InvalidParameterError(
                f"read_workers must be >= 1, got {read_workers}"
            )
        if (graph is None) == (registry is None):
            raise InvalidParameterError(
                "provide exactly one of graph= (single tenant) or registry= "
                "(multi-tenant)"
            )
        if degrade_queue_depth is not None and degrade_queue_depth < 1:
            raise InvalidParameterError(
                f"degrade_queue_depth must be >= 1, got {degrade_queue_depth}"
            )
        if not 0.0 < degrade_fraction <= 1.0:
            raise InvalidParameterError(
                f"degrade_fraction must be in (0, 1], got {degrade_fraction}"
            )
        self.default_graph = default_graph
        self.verify_mutations = verify_mutations
        if registry is not None:
            # The external registry's own settings are left untouched; this
            # service's verify_mutations only affects logs ingested through it.
            self.registry = registry
            self._owns_registry = False
        else:
            self.registry = GraphRegistry(
                defaults=TenantConfig(
                    decay=decay,
                    iterations=iterations,
                    num_walks=num_walks,
                    seed=seed,
                    shard_size=shard_size,
                    store_budget_bytes=store_budget_bytes,
                    max_num_walks=max_num_walks,
                    max_qps=max_qps,
                    max_inflight=max_inflight,
                    max_queue_depth=max_queue_depth,
                    topk_index_budget_bytes=topk_index_budget_bytes,
                ),
                verify_mutations=verify_mutations,
            )
            self._owns_registry = True
            self.registry.create(default_graph, graph)
        self.max_batch_size = max_batch_size
        self.batch_wait_seconds = batch_wait_seconds
        self.read_workers = int(read_workers)
        self.degrade_queue_depth = (
            int(degrade_queue_depth) if degrade_queue_depth is not None else None
        )
        self.degrade_fraction = float(degrade_fraction)
        self.obs = obs if obs is not None else Observability()
        metrics = self.obs.metrics
        self.stats = ServiceStats(metrics)
        #: Per-tenant quota enforcement at the submission edge (tenants
        #: without quotas bypass it — see :mod:`repro.service.qos`).
        self.admission = AdmissionController(metrics)
        self._degraded_answers = metrics.counter("qos.degraded_answers")
        #: Fault-injection seam (tests only): when set, called with each
        #: query during batch planning; an exception it raises fails that
        #: query alone, exactly like a real planning/execution fault.
        self._fail_hook = None
        # Phase-latency histograms of the query pipeline.  With metrics
        # disabled these are the shared no-op singletons, so the observe
        # calls on the hot path cost nothing.
        self._dispatch_wait_ms = metrics.histogram("service.dispatch_wait_ms")
        self._coalesce_ms = metrics.histogram("service.coalesce_ms")
        self._read_wait_ms = metrics.histogram("service.read_wait_ms")
        self._epoch_pin_ms = metrics.histogram("service.epoch_pin_ms")
        self._query_total_ms = metrics.histogram("service.query_total_ms")
        self._mutation_total_ms = metrics.histogram("service.mutation_total_ms")
        # Read-pool backlog: tasks handed to the pool but not yet started.
        # Always a real gauge — even with metrics off — because
        # ``service_stats()`` reports it unconditionally; the pool's private
        # work queue is never touched (its attributes are CPython
        # implementation details).
        self._read_pool_depth = Gauge("service.read_pool_depth")
        metrics.register_callback(
            "service.read_pool_queue_depth",
            lambda: max(0, int(self._read_pool_depth.get())),
        )
        self.registry.bind_metrics(metrics)
        self._queue: "queue.Queue" = queue.Queue()
        metrics.register_callback("service.dispatch_queue_depth", self._queue.qsize)
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        # Per-tenant ingest barrier: the Future of the last mutation routed
        # to the writer.  Touched only by the dispatcher thread (the writer
        # merely resolves the Future), so it needs no lock.
        self._barriers: Dict[str, "Future"] = {}
        self._read_pool = ThreadPoolExecutor(
            max_workers=self.read_workers, thread_name_prefix="similarity-read"
        )
        self._writer_queue: "queue.Queue" = queue.Queue()
        metrics.register_callback("service.writer_queue_depth", self._writer_queue.qsize)
        self._writer = threading.Thread(
            target=self._writer_loop, name="similarity-writer", daemon=True
        )
        self._writer.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="similarity-service", daemon=True
        )
        self._dispatcher.start()

    # -- tenant access --------------------------------------------------------

    def tenant(self, name: Optional[str] = None) -> GraphTenant:
        """The tenant registered under ``name`` (``None`` = default tenant)."""
        return self.registry.get(self.default_graph if name is None else name)

    @property
    def graph(self) -> UncertainGraph:
        """The default tenant's graph (single-tenant convenience)."""
        return self.tenant().graph

    @property
    def store(self) -> WalkBundleStore:
        """The default tenant's walk-bundle store."""
        return self.tenant().store

    @property
    def sampler(self) -> ShardedWalkSampler:
        """The default tenant's keyed walk sampler."""
        return self.tenant().sampler

    @property
    def engine(self) -> SimRankEngine:
        """The default tenant's engine (parameter source of its snapshots)."""
        return self.tenant().engine

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Drain pending work and stop the worker threads.

        Shutdown order matters: the dispatcher drains first (it may still
        route mutations to the writer and batches to the read pool), then
        the writer (resolving every ingest barrier a queued read task may be
        waiting on), then the read pool.
        """
        with self._lifecycle_lock:
            if self._closed:
                already_closed = True
            else:
                already_closed = False
                self._closed = True
                # Under the lock, no submit() can interleave between the flag
                # and the sentinel, so the sentinel is the queue's last item.
                self._queue.put(_SHUTDOWN)
        if already_closed:
            return
        self._dispatcher.join()
        self._writer_queue.put(_SHUTDOWN)
        self._writer.join()
        self._read_pool.shutdown(wait=True)
        # Defensive: nothing should follow the sentinel (see above), but a
        # stranded future must never hang its caller.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                continue
            if isinstance(item, _QueryItem):
                # Through _finish_query so a stranded admitted query still
                # returns its quota reservation.
                self._finish_query(item, error=RuntimeError("service is closed"))
            else:
                _resolve(item.future, error=RuntimeError("service is closed"))
        if self._owns_registry:
            self.registry.close()

    def __enter__(self) -> "SimilarityService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- submission -----------------------------------------------------------

    def submit(self, query: Query) -> "Future":
        """Enqueue a query; concurrent submissions coalesce into one batch.

        Returns a :class:`concurrent.futures.Future` resolving to a
        :class:`SimRankResult` (pair queries), ``[(u, v, score)]``
        (top-k-pairs) or ``[(vertex, score)]`` (top-k-for-vertex).

        When the target tenant carries admission quotas (``max_qps`` /
        ``max_inflight`` / ``max_queue_depth``) and the query would exceed
        one, :class:`~repro.service.qos.OverloadedError` is raised
        *synchronously* — the rejected query never enters the queue.
        """
        if not isinstance(query, (PairQuery, TopKPairsQuery, TopKVertexQuery)):
            raise InvalidParameterError(
                f"unknown query type {type(query).__name__!r}"
            )
        # Admission before enqueue: backpressure at the door.  Unknown
        # tenants skip admission and fail at dispatch time as before.
        name = self.default_graph if query.graph is None else query.graph
        admitted: Optional[str] = None
        if name in self.registry:
            if self.admission.admit(name, self.registry.get(name).config):
                admitted = name
        future: "Future" = Future()
        item = _QueryItem(
            query,
            future,
            trace=self.obs.begin_trace(type(query).__name__),
            submitted=time.perf_counter(),
            admitted=admitted,
        )
        with self._lifecycle_lock:
            if self._closed:
                if admitted is not None:
                    self.admission.release(admitted, dispatched=False)
                raise RuntimeError("service is closed")
            self._queue.put(item)
        return future

    def pair(
        self,
        u: Vertex,
        v: Vertex,
        method: str = "sampling",
        graph: Optional[str] = None,
        num_walks: Optional[int] = None,
        accuracy: Optional[float] = None,
    ) -> SimRankResult:
        """Blocking single-pair similarity query."""
        return self.submit(
            PairQuery(
                u, v, method=method, graph=graph, num_walks=num_walks,
                accuracy=accuracy,
            )
        ).result()

    def top_k_pairs(
        self,
        k: int,
        candidate_pairs: Optional[Sequence[Tuple[Vertex, Vertex]]] = None,
        method: str = "sampling",
        graph: Optional[str] = None,
        num_walks: Optional[int] = None,
    ) -> List[ScoredPair]:
        """Blocking top-k-pairs query."""
        pairs = (
            tuple(tuple(pair) for pair in candidate_pairs)
            if candidate_pairs is not None
            else None
        )
        return self.submit(
            TopKPairsQuery(k, pairs, method=method, graph=graph, num_walks=num_walks)
        ).result()

    def top_k_for_vertex(
        self,
        query: Vertex,
        k: int,
        candidates: Optional[Sequence[Vertex]] = None,
        method: str = "sampling",
        graph: Optional[str] = None,
        num_walks: Optional[int] = None,
    ) -> List[ScoredVertex]:
        """Blocking top-k-for-vertex query."""
        chosen = tuple(candidates) if candidates is not None else None
        return self.submit(
            TopKVertexQuery(
                query, k, chosen, method=method, graph=graph, num_walks=num_walks
            )
        ).result()

    # -- tenant lifecycle and mutation ingest ----------------------------------

    def create_graph(
        self,
        name: str,
        graph: Optional[UncertainGraph] = None,
        **config_overrides: object,
    ) -> GraphTenant:
        """Register a new tenant (see :meth:`GraphRegistry.create`)."""
        return self.registry.create(name, graph, **config_overrides)

    def drop_graph(self, name: str) -> None:
        """Unregister a tenant.  In-flight queries naming it fail cleanly."""
        self.registry.drop(name)

    def graphs(self) -> List[str]:
        """Names of the hosted tenants."""
        return self.registry.names()

    def submit_mutations(
        self, log: MutationLog, graph: Optional[str] = None
    ) -> "Future":
        """Enqueue a mutation batch for one tenant; returns a Future.

        The item travels the submission queue to keep per-tenant ordering:
        queries submitted before the log pin the pre-mutation epoch; queries
        submitted after it wait for the mutation's epoch (and only they —
        other tenants are never stalled).  The Future resolves to a
        :class:`~repro.service.tenancy.MutationReport` once the writer has
        published the new epoch.
        """
        if not isinstance(log, MutationLog):
            raise InvalidParameterError(
                f"expected a MutationLog, got {type(log).__name__!r}"
            )
        future: "Future" = Future()
        name = self.default_graph if graph is None else graph
        item = _MutationItem(
            name,
            log,
            future,
            trace=self.obs.begin_trace("Mutation"),
            submitted=time.perf_counter(),
        )
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            self._queue.put(item)
        return future

    def mutate(self, log: MutationLog, graph: Optional[str] = None) -> MutationReport:
        """Blocking mutation ingest: apply ``log`` to one tenant."""
        return self.submit_mutations(log, graph=graph).result()

    # -- introspection ---------------------------------------------------------

    def service_stats(self) -> Dict[str, object]:
        """Batching, mutation, epoch, and per-tenant bundle-store counters.

        The flat ``store`` / ``store_entries`` / ``store_bytes`` keys mirror
        the default tenant (kept for single-tenant callers and older
        clients); ``tenants`` holds the per-tenant breakdown, including each
        tenant's own hit/miss/eviction counters and epoch accounting
        (``epochs``: published / freed / live / pinned — ``live`` returns to
        1 and ``pinned`` to 0 when readers drain, the snapshot-leak check).
        """
        stats: Dict[str, object] = self.stats.snapshot()
        stats["read_workers"] = self.read_workers
        # Instantaneous queue depths: work accepted but not yet started.
        # qsize() is approximate under concurrency, which is fine for
        # observability — these answer "is the service keeping up?".
        stats["dispatch_queue_depth"] = self._queue.qsize()
        # Tracked by the service's own submit/start gauge — never by poking
        # at the ThreadPoolExecutor's private work queue (a CPython
        # implementation detail that is free to change or disappear).
        stats["read_pool_queue_depth"] = max(0, int(self._read_pool_depth.get()))
        stats["writer_queue_depth"] = self._writer_queue.qsize()
        stats["tenants"] = self.registry.stats()
        stats["qos"] = {
            "degrade_queue_depth": self.degrade_queue_depth,
            "degrade_fraction": self.degrade_fraction,
            "degraded_answers": int(self._degraded_answers.get()),
            "admission": self.admission.stats(),
        }
        stats["metrics"] = self.obs.metrics.snapshot()
        stats["tracing"] = self.obs.tracer.enabled
        if self.default_graph in self.registry:
            default_tenant = self.registry.get(self.default_graph)
            stats["store"] = default_tenant.store.stats.as_dict()
            stats["store_entries"] = len(default_tenant.store)
            stats["store_bytes"] = default_tenant.store.current_bytes
        return stats

    # -- the dispatcher / writer threads ---------------------------------------

    def _dispatch_loop(self) -> None:
        """Coalesce submissions into batches and hand them to the read pool.

        Mutations end the batch being coalesced (per-tenant ordering: the
        batch's queries were submitted first, so its epochs are pinned
        *before* the mutation is routed) and are then forwarded to the
        writer thread.
        """
        shutdown = False
        while not shutdown:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            if isinstance(item, _MutationItem):
                self._route_mutation(item)
                continue
            item.dequeued = time.perf_counter()
            batch = [item]
            trailing: Optional[_MutationItem] = None
            while len(batch) < self.max_batch_size:
                try:
                    item = self._queue.get(timeout=self.batch_wait_seconds)
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    shutdown = True
                    break
                if isinstance(item, _MutationItem):
                    trailing = item
                    break
                item.dequeued = time.perf_counter()
                batch.append(item)
            try:
                self._dispatch_batch(batch)
            except Exception as error:
                # The dispatcher must survive anything — a dead dispatcher
                # would hang every pending and future caller.
                for query_item in batch:
                    self._finish_query(query_item, error=error)
            if trailing is not None:
                self._route_mutation(trailing)

    def _route_mutation(self, item: _MutationItem) -> None:
        # The barrier is service-owned, never handed to clients: it resolves
        # exactly when the writer finishes this apply, even if the client
        # cancelled or dropped its own Future mid-flight.
        self._barriers[item.graph] = item.barrier
        self._writer_queue.put(item)

    def _writer_loop(self) -> None:
        """The single writer: applies mutation logs and publishes epochs."""
        while True:
            item = self._writer_queue.get()
            if item is _SHUTDOWN:
                return
            self._process_mutation(item)

    def _process_mutation(self, item: _MutationItem) -> None:
        self.stats.record_mutation()
        started = time.perf_counter()
        if item.trace is not None:
            item.trace.add_span("queue_wait", item.submitted, started)
            item.trace.open_span("apply", {"graph": item.graph, "ops": len(item.log)})
        try:
            report = self.registry.get(item.graph).apply(
                item.log,
                verify=self.verify_mutations or self.registry.verify_mutations,
            )
        except Exception as error:
            self._finish_mutation(item)
            _resolve(item.future, error=error)
            return
        finally:
            # Barrier semantics, not result semantics: it marks "this ingest
            # is no longer in flight" for queries ordered behind it, on
            # success and failure alike.
            _resolve(item.barrier, result=None)
        self._finish_mutation(item)
        _resolve(item.future, result=report)

    def _finish_mutation(self, item: _MutationItem) -> None:
        self._mutation_total_ms.observe(1000.0 * (time.perf_counter() - item.submitted))
        if item.trace is not None:
            item.trace.finish()

    def _dispatch_batch(self, batch: List[_QueryItem]) -> None:
        self.stats.record_batch([item.query for item in batch])
        dispatched = time.perf_counter()
        for item in batch:
            # dispatch_wait: submit() → dispatcher dequeue; coalesce: dequeue
            # → batch handed off.  Top-level, non-overlapping spans, so a
            # trace's span durations sum to (at most) its total.
            self._dispatch_wait_ms.observe(1000.0 * (item.dequeued - item.submitted))
            self._coalesce_ms.observe(1000.0 * (dispatched - item.dequeued))
            if item.trace is not None:
                item.trace.add_span("dispatch_wait", item.submitted, item.dequeued)
                item.trace.add_span("coalesce", item.dequeued, dispatched)
            if item.admitted is not None and not item.admission_dispatched:
                item.admission_dispatched = True
                self.admission.mark_dispatched(item.admitted)
        # Graceful degradation is decided once per batch, at dispatch time:
        # queue pressure behind this batch means the service is falling
        # behind, so the whole batch answers at reduced fidelity.
        degrade = (
            self.degrade_queue_depth is not None
            and self._queue.qsize() >= self.degrade_queue_depth
        )
        # Split the batch per tenant; each group pins its tenant's epoch and
        # runs on the read pool against that immutable snapshot.
        groups: Dict[str, List[_QueryItem]] = {}
        for item in batch:
            name = self.default_graph if item.query.graph is None else item.query.graph
            groups.setdefault(name, []).append(item)
        for name, items in groups.items():
            try:
                tenant = self.registry.get(name)
            except Exception as error:
                for item in items:
                    self._finish_query(item, error=error)
                continue
            barrier = self._barriers.get(name)
            if barrier is not None and barrier.done():
                del self._barriers[name]
                barrier = None
            lease: Optional[EpochLease] = None
            if barrier is None:
                # Pin here, in submission order: the epoch is leased before
                # any later-submitted mutation can publish its successor.
                try:
                    pin_started = time.perf_counter()
                    lease = tenant.pin_epoch()
                    self._record_epoch_pin(items, pin_started)
                except Exception as error:
                    for item in items:
                        self._finish_query(item, error=error)
                    continue
            self._read_pool_depth.inc()
            self._read_pool.submit(
                self._run_tenant_batch,
                tenant,
                items,
                lease,
                barrier,
                time.perf_counter(),
                degrade,
            )

    def _record_epoch_pin(self, items: List[_QueryItem], started: float) -> None:
        pinned = time.perf_counter()
        self._epoch_pin_ms.observe(1000.0 * (pinned - started))
        for item in items:
            if item.trace is not None:
                item.trace.add_span("epoch_pin", started, pinned)

    def _run_tenant_batch(
        self,
        tenant: GraphTenant,
        items: List[_QueryItem],
        lease: Optional[EpochLease],
        barrier: Optional["Future"],
        pool_submitted: float,
        degrade: bool = False,
    ) -> None:
        """Read-pool task: answer one tenant group against its pinned epoch."""
        self._read_pool_depth.dec()
        started = time.perf_counter()
        self._read_wait_ms.observe(1000.0 * (started - pool_submitted))
        for item in items:
            if item.trace is not None:
                item.trace.add_span("read_wait", pool_submitted, started)
        if lease is None:
            # These queries were submitted after a mutation still in flight:
            # wait for its epoch.  The barrier is the writer's internal
            # Future (the client's handle may be cancelled mid-apply without
            # releasing us early); futures_wait (not .result()) because the
            # outcome is irrelevant — a failed ingest leaves the graph (and
            # the current epoch) unchanged, and must not raise past this
            # task's error handling and strand every query in the group.
            if barrier is not None:
                barrier_started = time.perf_counter()
                futures_wait([barrier])
                barrier_ended = time.perf_counter()
                for item in items:
                    if item.trace is not None:
                        item.trace.add_span(
                            "barrier_wait", barrier_started, barrier_ended
                        )
            try:
                pin_started = time.perf_counter()
                lease = tenant.pin_epoch()
                self._record_epoch_pin(items, pin_started)
            except Exception as error:
                for item in items:
                    self._finish_query(item, error=error)
                return
        for item in items:
            if item.trace is not None:
                # The worker phase: everything from here to resolution nests
                # under "execute"; _finish_query's trace.finish() closes it.
                item.trace.open_span("execute")
        try:
            with lease:
                self._process_tenant_batch(tenant, lease.snapshot, items, degrade)
        except Exception as error:
            # _process_tenant_batch isolates per-query errors; whatever still
            # escapes fails the group, never the pool worker.
            for item in items:
                self._finish_query(item, error=error)

    def _process_tenant_batch(
        self,
        tenant: GraphTenant,
        snapshot: EngineSnapshot,
        batch: List[_QueryItem],
        degrade: bool = False,
    ) -> None:
        # Validate and plan every query, isolating per-query failures.
        planned: List[Tuple[_QueryItem, _QueryPlan]] = []
        for item in batch:
            try:
                if self._fail_hook is not None:
                    self._fail_hook(item.query)
                planned.append(
                    (item, self._plan(tenant, snapshot, item.query, degrade))
                )
            except Exception as error:
                self._finish_query(item, error=error)

        # Adaptive-fidelity pair queries are answered individually — their
        # walk count is data-dependent, so they can never share a batch
        # group — through the sampling executor's shard-growing loop.
        adaptive = [entry for entry in planned if entry[1].accuracy is not None]
        planned = [entry for entry in planned if entry[1].accuracy is None]
        for item, plan in adaptive:
            executor = executor_for(plan.method)(snapshot)
            executor.obs_scope = self.obs.scope([item.trace])
            try:
                result = executor.run_adaptive(
                    plan.pairs[0],
                    plan.accuracy,
                    shard_size=tenant.config.shard_size,
                    start_walks=plan.walks,
                    max_walks=tenant.config.max_num_walks,
                )
                self._finish_query(
                    item, result=self._assemble(tenant, snapshot, plan, [result])
                )
            except Exception as error:
                self._finish_query(item, error=error)

        # One snapshot-scoped executor per (method, walk count) group: the
        # pairs of every query in a group are scored by a single run_batch,
        # so bundle / exact-prefix work is shared across queries of the
        # batch, not just within one.  No method-specific branches: all four
        # methods flow through MethodExecutor.run_batch on this read worker.
        groups: Dict[
            Tuple[str, Optional[int]], List[Tuple[_QueryItem, _QueryPlan]]
        ] = {}
        for entry in planned:
            plan = entry[1]
            groups.setdefault((plan.method, plan.walks), []).append(entry)
        for (method, walks), entries in groups.items():
            executor = executor_for(method)(snapshot)
            overrides: Dict[str, object] = {} if walks is None else {"num_walks": walks}
            # Top-k plans that cover enough of the graph route through the
            # epoch-scoped index; a ``None`` index (artifact over the byte
            # budget) degrades to the scan with identical answers.  The
            # lookup is per group, so its build cost (a cache miss) is paid
            # once per (method, walks).
            covered = {
                id(entry) for entry in entries if self._index_covers(entry[1], snapshot)
            }
            index: Optional[TopKIndex] = None
            if covered:
                index = snapshot_index(snapshot, method, num_walks=walks)
                tenant.record_index_lookup(
                    hit=index is not None and index.cache_hit,
                    usable=index is not None,
                )
            # Answered one by one through core.topk: the default pair space
            # (streamed, pruned per chunk when indexed) and the indexed plans.
            # Everything else shares the group's one run_batch.
            ranked: List[Tuple[_QueryItem, _QueryPlan]] = []
            scored: List[Tuple[_QueryItem, _QueryPlan]] = []
            for entry in entries:
                alone = entry[1].kind == "all_pairs" or (
                    index is not None and id(entry) in covered
                )
                (ranked if alone else scored).append(entry)
            for item, plan in ranked:
                # Per-query work: the executor's stage spans and the index's
                # bound/prune/rescore spans attribute to this query alone.
                scope = self.obs.scope([item.trace])
                executor.obs_scope = scope
                try:
                    self._finish_query(
                        item,
                        result=self._answer_top_k(
                            tenant, snapshot, executor, plan, overrides, index, scope
                        ),
                    )
                except Exception as error:
                    self._finish_query(item, error=error)
            if scored:
                # Shared work: one run_batch scores every query of the
                # group, so its executor stages attribute to every bound
                # trace (each query really did wait on that shared stage).
                executor.obs_scope = self.obs.scope(
                    [item.trace for item, _ in scored]
                )
                flat = [pair for _, plan in scored for pair in plan.pairs]
                try:
                    results = executor.run_batch(flat, overrides)
                except Exception:
                    # The shared batch failed — e.g. one query's endpoint
                    # blew the exact walk-state budget or broke the sampler.
                    # Retry per query on the same executor (keyed
                    # randomness: answers cannot change) so the failure
                    # stays with the query that caused it.
                    for item, plan in scored:
                        executor.obs_scope = self.obs.scope([item.trace])
                        try:
                            self._finish_query(
                                item,
                                result=self._assemble(
                                    tenant,
                                    snapshot,
                                    plan,
                                    executor.run_batch(plan.pairs, overrides),
                                ),
                            )
                        except Exception as error:
                            self._finish_query(item, error=error)
                else:
                    offset = 0
                    for item, plan in scored:
                        share = results[offset : offset + len(plan.pairs)]
                        offset += len(plan.pairs)
                        try:
                            self._finish_query(
                                item,
                                result=self._assemble(tenant, snapshot, plan, share),
                            )
                        except Exception as error:
                            self._finish_query(item, error=error)

    # -- planning and answering ------------------------------------------------

    def _finish_query(
        self,
        item: _QueryItem,
        result: object = None,
        error: "Exception | None" = None,
    ) -> None:
        """Complete one query: observe its total, finish its trace, resolve.

        Safe to call twice (a worker's per-query error path racing the
        group-level catch-all): the item's ``finished`` flag keeps the
        histogram observation single-shot, :meth:`QueryTrace.finish` is
        idempotent, and :func:`_resolve` tolerates a settled future.
        """
        if not item.finished:
            item.finished = True
            if item.admitted is not None:
                # Return the quota reservation exactly once; an undispatched
                # item (planning error, closed-service drain) also returns
                # its queued slot.
                self.admission.release(item.admitted, item.admission_dispatched)
            self._query_total_ms.observe(
                1000.0 * (time.perf_counter() - item.submitted)
            )
            if item.trace is not None:
                total_ms = item.trace.finish({"error": error is not None})
                if error is None:
                    # Attach trace identity to the answer so clients can join
                    # responses to the exported JSONL spans.  Only reachable
                    # with tracing on, so pinned (trace-less) response
                    # streams stay bit-identical.
                    if isinstance(result, TopKResult):
                        result.trace_id = item.trace.trace_id
                        result.trace_total_ms = total_ms
                    elif isinstance(result, SimRankResult):
                        result.details["trace_id"] = item.trace.trace_id
                        result.details["trace_total_ms"] = total_ms
        _resolve(item.future, result=result, error=error)

    def _mark_degraded(self, plan: _QueryPlan, result: object) -> object:
        """Stamp degradation provenance on a degraded plan's answer.

        A no-op for non-degraded plans, so ordinary response streams carry
        no new fields and stay bit-identical to the pre-QoS service.
        """
        if not plan.degraded:
            return result
        self._degraded_answers.inc()
        if isinstance(result, SimRankResult):
            result.details["degraded"] = True
            result.details["walks_used"] = plan.walks_used
        elif isinstance(result, TopKResult):
            result.degraded = True
            result.walks_used = plan.walks_used
        return result

    @staticmethod
    def _index_covers(plan: "_QueryPlan", snapshot: EngineSnapshot) -> bool:
        """Whether this plan touches enough of the graph to justify the index.

        A cold index build resolves the walk bundle of *every* vertex into
        its lanes, while the scan samples only the endpoints a query names —
        so a query over a thin explicit candidate slice is cheaper to scan
        even though the build would be amortized across the epoch.  Plans
        whose endpoints cover at least half the graph (the default top-k
        candidate spaces always do) route through the index.
        """
        if plan.kind == "pair":
            return False
        if plan.kind == "all_pairs":
            return True
        if plan.kind == "topk_vertex":
            endpoints = len(plan.items) + 1
        else:
            endpoints = len({vertex for pair in plan.pairs for vertex in pair})
        return 2 * endpoints >= snapshot.csr.num_vertices

    def _effective_num_walks(
        self, tenant: GraphTenant, snapshot: EngineSnapshot, query: Query
    ) -> int:
        """The walk count this query runs at, validated against the cap."""
        if query.num_walks is None:
            return snapshot.num_walks
        walks = int(query.num_walks)
        if walks < 1:
            raise InvalidParameterError(f"num_walks must be >= 1, got {walks}")
        cap = tenant.config.max_num_walks
        if cap is not None and walks > cap:
            raise InvalidParameterError(
                f"num_walks={walks} exceeds graph {tenant.name!r} admission "
                f"cap max_num_walks={cap}"
            )
        return walks

    def _plan(
        self,
        tenant: GraphTenant,
        snapshot: EngineSnapshot,
        query: Query,
        degrade: bool = False,
    ) -> _QueryPlan:
        """Validate one query and reduce it to the pairs its executor scores."""
        executor_cls = executor_for(query.method)
        accuracy = getattr(query, "accuracy", None)
        if accuracy is not None:
            if query.method != "sampling":
                raise InvalidParameterError(
                    f"accuracy= is only supported for method 'sampling', "
                    f"got {query.method!r}"
                )
            if not 0.0 < float(accuracy) < 1.0:
                raise InvalidParameterError(
                    f"accuracy must be in (0, 1), got {accuracy}"
                )
        walks: Optional[int] = None
        if query.num_walks is not None:
            # Uniform admission: the method's executor declares whether a
            # num_walks override is meaningful (the exact baseline rejects
            # it with a clear error instead of silently ignoring it), then
            # the tenant's max_num_walks cap is applied.
            executor_cls.check_overrides({"num_walks": query.num_walks})
            walks = self._effective_num_walks(tenant, snapshot, query)
            if accuracy is None and walks == snapshot.num_walks:
                # Normalize an explicit request for the tenant default so it
                # groups (and shares batch work) with default-walk queries.
                # Adaptive plans skip this: their num_walks is a starting
                # count, never a group key.
                walks = None
        # Graceful degradation: truncate the walk count of sampled-method
        # plans to whole shards of the keyed scheme.  Because an N-walk
        # bundle is the exact prefix of a larger one, the degraded answer
        # equals a normal query at the truncated count bit for bit.
        # Adaptive plans manage their own fidelity and are exempt.
        degraded = False
        walks_used: Optional[int] = None
        if (
            degrade
            and accuracy is None
            and "num_walks" in executor_cls.accepted_overrides
        ):
            base = walks if walks is not None else snapshot.num_walks
            shard = tenant.config.shard_size
            reduced = max(
                shard, (int(base * self.degrade_fraction) // shard) * shard
            )
            if reduced < base:
                walks = reduced
                degraded = True
                walks_used = reduced
        if isinstance(query, PairQuery):
            # The one candidate validator; a single pair has no k to check.
            checked_candidates(snapshot.csr, 1, [(query.u, query.v)], pairs=True)
            return _QueryPlan(
                "pair",
                query.method,
                walks,
                pairs=[(query.u, query.v)],
                degraded=degraded,
                walks_used=walks_used,
                accuracy=float(accuracy) if accuracy is not None else None,
            )
        if isinstance(query, TopKVertexQuery):
            candidates = checked_candidates(
                snapshot.csr, query.k, query.candidates, query=query.query
            )
            return _QueryPlan(
                "topk_vertex",
                query.method,
                walks,
                pairs=[(query.query, candidate) for candidate in candidates],
                items=candidates,
                k=query.k,
                query=query.query,
                degraded=degraded,
                walks_used=walks_used,
            )
        # The quadratic default pair space (no candidates) is streamed chunk
        # by chunk rather than planned here: scoring it as one batch would
        # pin every vertex's bundle live at once, defeating the store's LRU
        # budget.
        pairs = checked_candidates(
            snapshot.csr, query.k, query.candidate_pairs, pairs=True
        )
        return _QueryPlan(
            "all_pairs" if pairs is None else "topk_pairs",
            query.method,
            walks,
            pairs=pairs or [],
            items=pairs or [],
            k=query.k,
            degraded=degraded,
            walks_used=walks_used,
        )

    def _assemble(
        self,
        tenant: GraphTenant,
        snapshot: EngineSnapshot,
        plan: _QueryPlan,
        results: Sequence[SimRankResult],
    ) -> object:
        """Shape one query's executor results into its response."""
        if plan.kind == "pair":
            result = results[0]
            result.details["service"] = True
            result.details["graph"] = tenant.name
            return self._mark_degraded(plan, result)
        # Scores come from the same executors as pair queries, so a top-k
        # entry and the corresponding pair query agree bit-for-bit; ranking
        # is core.topk's (ties keep candidate order).
        ranked: list = top_k_of(plan.k, plan.items, results)
        if plan.kind == "topk_pairs":
            ranked = [(u, v, score) for (u, v), score in ranked]
        return self._mark_degraded(
            plan,
            TopKResult(
                ranked,
                epoch=snapshot.epoch_id,
                graph_version=snapshot.graph_version,
                graph=tenant.name,
            ),
        )

    def _answer_top_k(
        self,
        tenant: GraphTenant,
        snapshot: EngineSnapshot,
        executor: MethodExecutor,
        plan: _QueryPlan,
        overrides: Dict[str, object],
        index: Optional[TopKIndex],
        obs,
    ) -> "TopKResult":
        """Answer one top-k plan on its own through :mod:`repro.core.topk`.

        The default pair space streams through ``all_pairs_top_k`` (pruned
        per chunk when ``index`` is given); the other kinds only come here
        with an index.  Bit-identical to :meth:`_assemble` over a full
        ``run_batch``: the same executor scores, the same tie rule ranks.
        Indexed answers carry the prune counters, and the tenant tallies
        them.
        """
        if plan.kind == "all_pairs":
            ranked, prune = all_pairs_top_k(executor, plan.k, overrides, index, obs)
        elif plan.kind == "topk_vertex":
            ranked, prune = vertex_top_k(
                executor, plan.query, plan.items, plan.k, overrides, index, obs
            )
        else:
            ranked, prune = pair_top_k(executor, plan.items, plan.k, overrides, index, obs)
        result = TopKResult(
            ranked,
            epoch=snapshot.epoch_id,
            graph_version=snapshot.graph_version,
            graph=tenant.name,
        )
        if prune is not None:
            tenant.record_prune(prune.candidates_total, prune.candidates_rescored)
            result.candidates_total = prune.candidates_total
            result.candidates_rescored = prune.candidates_rescored
            result.index_build_ms = prune.index_build_ms
        return self._mark_degraded(plan, result)


def _resolve(future: "Future", result: object = None, error: "Exception | None" = None) -> None:
    """Resolve a future, tolerating client-side cancellation.

    Futures handed out by :meth:`SimilarityService.submit` are never marked
    running, so clients may legitimately ``cancel()`` them at any point; a
    cancelled (or otherwise already-settled) future must not take a worker
    down with an ``InvalidStateError``.
    """
    if not future.set_running_or_notify_cancel():
        return
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except Exception:  # pragma: no cover - settled concurrently
        pass
