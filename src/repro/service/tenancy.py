"""Multi-tenant graph hosting and incremental mutation ingest.

One long-running similarity service rarely serves a single graph: the
production shape is many named graphs — *tenants* — sharing one process,
each with its own resource budget and engine configuration.  This module
provides that layer:

* :class:`MutationLog` — an ordered, validated batch of graph mutations
  (``add_edge`` / ``remove_edge`` / ``update_probability``) that can be
  applied atomically-with-respect-to-validation to an
  :class:`~repro.graph.uncertain_graph.UncertainGraph` and reports exactly
  which adjacency rows it dirtied.
* :class:`GraphTenant` — one hosted graph together with its private
  :class:`~repro.core.bundle_store.WalkBundleStore` (own byte budget) and
  the :class:`~repro.core.engine.SimRankEngine` wired to it (own seed /
  shard scheme and engine parameters; the engine's keyed sampler is the
  tenant's).
* :class:`GraphRegistry` — the name → tenant mapping hosted inside one
  :class:`~repro.service.service.SimilarityService` process, with
  create / get / drop lifecycle and per-tenant mutation ingest.

Applying a :class:`MutationLog` to a tenant bumps the graph's mutation
version and refreshes the CSR snapshot *incrementally*
(:meth:`~repro.graph.csr.CSRGraph.from_uncertain_incremental`): untouched
adjacency rows are copied from the previous snapshot, so the per-mutation
cost scales with the mutation batch rather than the graph.  A ``verify``
mode cross-checks every incremental rebuild against a full re-freeze.  The
tenant's walk bundles are *carried forward*, not dropped: a walk is a pure
function of its world key and the out-rows it leaves, so the publish hands
the log's dirty rows to the tenant's bundle store, and a cached bundle is
repaired on its first lookup at the new version by resampling only the
walks that left a dirty vertex.  No other tenant is touched.  Paths that do
not know the dirty rows — a graph mutated directly, the full-rebuild
fallback — clear the tenant's store instead.

Thread safety: each tenant is a single-writer / multi-reader structure.
Mutation ingest (:meth:`GraphTenant.apply`) runs under the tenant's write
lock and finishes by *publishing a new epoch* — the immutable
:class:`~repro.service.epoch.EngineSnapshot` that the tenant engine's
:meth:`~repro.core.engine.SimRankEngine.snapshot` builds, installed
atomically through the tenant's
:class:`~repro.service.epoch.EpochManager`.  Readers
(:meth:`GraphTenant.pin_epoch`) lease whatever epoch is current and keep
answering from it even while the next mutation batch is being applied; a
retired epoch is freed when its last lease drains.  The registry's
lifecycle operations are lock-protected.  Callers that mutate a tenant's
graph *directly* (bypassing :meth:`apply`) while readers are pinned must
provide their own ordering — the next :meth:`pin_epoch` picks the change up
by publishing a fresh epoch.
"""

from __future__ import annotations

import numbers
import threading
import time
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.batch_walks import DEFAULT_SHARD_SIZE, ShardedWalkSampler
from repro.core.bundle_store import DEFAULT_BUDGET_BYTES, WalkBundleStore
from repro.core.engine import SimRankEngine
from repro.core.sampling import DEFAULT_NUM_WALKS
from repro.core.simrank import DEFAULT_DECAY, DEFAULT_ITERATIONS
from repro.core.topk_index import DEFAULT_INDEX_BUDGET_BYTES
from repro.graph.csr import CSRGraph
from repro.graph.uncertain_graph import UncertainGraph
from repro.obs import NULL_HISTOGRAM, MetricsRegistry
from repro.service.epoch import EpochLease, EpochManager
from repro.utils.errors import InvalidParameterError

Vertex = Hashable

#: Tenant name used when a service is built around a single anonymous graph.
DEFAULT_GRAPH_NAME = "default"

#: The mutation operations a :class:`MutationLog` can carry.
MUTATION_OPS = ("add_edge", "remove_edge", "update_probability")


@dataclass(frozen=True)
class Mutation:
    """One graph mutation: an arc added, removed, or re-weighted.

    ``add_edge`` requires the arc to be absent (endpoints may be brand-new
    vertices, which are created), ``remove_edge`` and ``update_probability``
    require it to be present — so a log states intent unambiguously and a
    misdirected op fails validation instead of silently doing something else.
    """

    op: str
    u: Vertex
    v: Vertex
    probability: Optional[float] = None


class MutationLog:
    """An ordered batch of mutations applied to one tenant's graph.

    Build one with the fluent helpers and hand it to
    :meth:`GraphRegistry.apply` (or :meth:`SimilarityService.mutate`)::

        log = (
            MutationLog()
            .add_edge("a", "b", 0.8)
            .update_probability("b", "c", 0.5)
            .remove_edge("c", "a")
        )

    or parse one from JSONL records with :meth:`from_records`.  ``apply_to``
    validates the *whole* log against the graph (tracking intra-log effects,
    so e.g. removing an arc the same log added is legal) before touching it:
    a invalid op leaves the graph unchanged.
    """

    def __init__(self, mutations: Iterable[Mutation] = ()) -> None:
        self._mutations: List[Mutation] = []
        for mutation in mutations:
            self._append(mutation)

    # -- construction ---------------------------------------------------------

    def _append(self, mutation: Mutation) -> "MutationLog":
        if mutation.op not in MUTATION_OPS:
            raise InvalidParameterError(
                f"unknown mutation op {mutation.op!r}; expected one of {MUTATION_OPS}"
            )
        probability = mutation.probability
        if mutation.op != "remove_edge" or probability is not None:
            # A number, never a bool or a numeric string.
            if (
                isinstance(probability, bool)
                or not isinstance(probability, numbers.Real)
                or not 0.0 < probability <= 1.0
            ):
                raise InvalidParameterError(
                    f"{mutation.op} field 'probability' must be a number in "
                    f"(0, 1], got {probability!r} for ({mutation.u!r}, {mutation.v!r})"
                )
        self._mutations.append(mutation)
        return self

    def add_edge(self, u: Vertex, v: Vertex, probability: float) -> "MutationLog":
        """Append an arc creation (the arc must not already exist)."""
        return self._append(Mutation("add_edge", u, v, float(probability)))

    def remove_edge(self, u: Vertex, v: Vertex) -> "MutationLog":
        """Append an arc removal (the arc must exist)."""
        return self._append(Mutation("remove_edge", u, v))

    def update_probability(self, u: Vertex, v: Vertex, probability: float) -> "MutationLog":
        """Append a probability change of an existing arc."""
        return self._append(Mutation("update_probability", u, v, float(probability)))

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "MutationLog":
        """Parse a log from JSON-friendly records.

        Each record is ``{"op": ..., "u": ..., "v": ...}`` plus
        ``"probability"`` for ``add_edge`` / ``update_probability`` — the
        shape carried by the ``mutate`` request of the JSONL runner.
        """
        log = cls()
        for record in records:
            if not isinstance(record, dict):
                raise InvalidParameterError(
                    f"mutation record must be an object, got {type(record).__name__}"
                )
            missing = [key for key in ("op", "u", "v") if key not in record]
            if missing:
                raise InvalidParameterError(
                    f"mutation record is missing required field(s) {missing}"
                )
            log._append(
                Mutation(record["op"], record["u"], record["v"], record.get("probability"))
            )
        return log

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._mutations)

    def __iter__(self) -> Iterator[Mutation]:
        return iter(self._mutations)

    def __repr__(self) -> str:
        return f"MutationLog({len(self._mutations)} ops)"

    def as_records(self) -> List[dict]:
        """The JSON-friendly inverse of :meth:`from_records`."""
        records = []
        for mutation in self._mutations:
            record = {"op": mutation.op, "u": mutation.u, "v": mutation.v}
            if mutation.probability is not None:
                record["probability"] = mutation.probability
            records.append(record)
        return records

    # -- application ----------------------------------------------------------

    def validate_against(self, graph: UncertainGraph) -> None:
        """Check every op against ``graph`` plus the log's own earlier ops.

        Raises :class:`~repro.utils.errors.InvalidParameterError` naming the
        offending op; the graph is never touched.
        """
        added: Set[Tuple[Vertex, Vertex]] = set()
        removed: Set[Tuple[Vertex, Vertex]] = set()
        for position, mutation in enumerate(self._mutations):
            arc = (mutation.u, mutation.v)
            exists = (graph.has_arc(*arc) or arc in added) and arc not in removed
            if mutation.op == "add_edge" and exists:
                raise InvalidParameterError(
                    f"mutation {position}: add_edge {arc!r} but the arc already "
                    "exists (use update_probability)"
                )
            if mutation.op in ("remove_edge", "update_probability") and not exists:
                raise InvalidParameterError(
                    f"mutation {position}: {mutation.op} {arc!r} but the arc "
                    "does not exist"
                )
            if mutation.op == "remove_edge":
                removed.add(arc)
                added.discard(arc)
            else:
                added.add(arc)
                removed.discard(arc)

    def apply_to(self, graph: UncertainGraph) -> Set[Vertex]:
        """Validate, then apply the whole log to ``graph``.

        Returns the set of *dirty sources*: every vertex whose out-adjacency
        changed (including brand-new vertices), i.e. exactly the rows the
        incremental CSR rebuild must re-derive.
        """
        self.validate_against(graph)
        dirty: Set[Vertex] = set()
        for mutation in self._mutations:
            if mutation.op == "remove_edge":
                graph.remove_arc(mutation.u, mutation.v)
            else:
                new_target = not graph.has_vertex(mutation.v)
                graph.add_arc(mutation.u, mutation.v, float(mutation.probability))
                if new_target:
                    dirty.add(mutation.v)
            dirty.add(mutation.u)
        return dirty


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant engine, sampling, and resource parameters.

    These are the knobs the single-graph
    :class:`~repro.service.service.SimilarityService` constructor exposes,
    made per-tenant: every hosted graph gets its own walk count, seed /
    shard scheme (hence its own deterministic answer stream) and bundle-store
    byte budget.
    """

    decay: float = DEFAULT_DECAY
    iterations: int = DEFAULT_ITERATIONS
    num_walks: int = DEFAULT_NUM_WALKS
    seed: Optional[int] = None
    shard_size: int = DEFAULT_SHARD_SIZE
    store_budget_bytes: Optional[int] = DEFAULT_BUDGET_BYTES
    #: Admission cap on per-query ``num_walks`` overrides (``None`` = no cap;
    #: the tenant's configured ``num_walks`` default is always admitted).
    max_num_walks: Optional[int] = None
    #: Byte budget of the tenant's per-epoch top-k index artifacts
    #: (``None`` = unbounded).
    topk_index_budget_bytes: Optional[int] = DEFAULT_INDEX_BUDGET_BYTES
    #: Sustained queries-per-second admission quota (token bucket with a
    #: one-second burst; ``None`` = unlimited).  Over-quota submissions are
    #: rejected with a structured ``overloaded`` error instead of queued.
    max_qps: Optional[float] = None
    #: Maximum queries of this tenant admitted and not yet answered
    #: (``None`` = unlimited).
    max_inflight: Optional[int] = None
    #: Maximum queries of this tenant sitting in the dispatch queue
    #: (admitted, not yet handed to the read pool; ``None`` = unlimited).
    max_queue_depth: Optional[int] = None

    def replace(self, **overrides: object) -> "TenantConfig":
        """A copy with the given fields overridden (unknown fields rejected)."""
        unknown = set(overrides) - set(self.__dataclass_fields__)
        if unknown:
            raise InvalidParameterError(
                f"unknown tenant config field(s) {sorted(unknown)}"
            )
        merged = {name: getattr(self, name) for name in self.__dataclass_fields__}
        merged.update(overrides)
        return TenantConfig(**merged)


@dataclass
class MutationReport:
    """What applying one :class:`MutationLog` to a tenant did.

    ``snapshot_ms`` is the time spent rebuilding the CSR snapshot alone
    (incremental patch, or full re-freeze when ``incremental`` is false) —
    the number to compare against a full re-freeze of the same graph.
    """

    graph: str
    ops: int
    dirty_rows: int
    version: int
    num_vertices: int
    num_arcs: int
    invalidated_bundles: int
    incremental: bool
    snapshot_ms: float

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (the ``mutate`` response of the runner).

        ``snapshot_ms`` is deliberately excluded: the runner's response
        stream is pinned to be bit-identical across runs, and a timing is
        not.  Callers that want it read the report object directly.
        """
        return {
            "graph": self.graph,
            "ops": self.ops,
            "dirty_rows": self.dirty_rows,
            "version": self.version,
            "num_vertices": self.num_vertices,
            "num_arcs": self.num_arcs,
            "invalidated_bundles": self.invalidated_bundles,
            "incremental": self.incremental,
        }


class GraphTenant:
    """One named graph hosted in a registry, with private serving state.

    A tenant owns everything query answering needs — the graph, a bundle
    store under its own byte budget, and a
    :class:`~repro.core.engine.SimRankEngine` wired to the store, whose
    keyed walk sampler and snapshots the tenant serves from — so that
    tenants never contend for cache budget and a mutation of one tenant
    cannot invalidate another's bundles.

    Concurrency model (single writer, epoch-pinned readers): all mutation
    of tenant state happens under :attr:`write_lock` and ends by publishing
    a fresh immutable :class:`~repro.service.epoch.EngineSnapshot` through
    :attr:`epochs`.  Readers never take the write lock on the hot path —
    :meth:`pin_epoch` is a refcount bump — so a large mutation batch being
    applied does not stall queries on this or any other tenant.
    """

    def __init__(self, name: str, graph: UncertainGraph, config: TenantConfig) -> None:
        if config.max_num_walks is not None and config.max_num_walks < 1:
            raise InvalidParameterError(
                f"max_num_walks must be >= 1 or None, got {config.max_num_walks}"
            )
        if config.max_qps is not None and not config.max_qps > 0:
            raise InvalidParameterError(
                f"max_qps must be > 0 or None, got {config.max_qps}"
            )
        if config.max_inflight is not None and config.max_inflight < 1:
            raise InvalidParameterError(
                f"max_inflight must be >= 1 or None, got {config.max_inflight}"
            )
        if config.max_queue_depth is not None and config.max_queue_depth < 1:
            raise InvalidParameterError(
                f"max_queue_depth must be >= 1 or None, got {config.max_queue_depth}"
            )
        self.name = name
        self.graph = graph
        self.config = config
        self.store = WalkBundleStore(config.store_budget_bytes)
        self.engine = SimRankEngine(
            graph,
            decay=config.decay,
            iterations=config.iterations,
            num_walks=config.num_walks,
            seed=config.seed,
            shard_size=config.shard_size,
            bundle_store=self.store,
            topk_index_budget_bytes=config.topk_index_budget_bytes,
        )
        self.epochs = EpochManager()
        #: Serializes writers (mutation ingest, epoch refresh).  Queries
        #: never take it: every method answers from pinned epoch snapshots.
        self.write_lock = threading.Lock()
        self._applying = False
        self.mutations_applied = 0
        self.ops_applied = 0
        # Top-k index observability: lookups/hits tally snapshot_index calls
        # (a lookup is "usable" when it yielded an index at all, a "hit" when
        # that index came from the store rather than a fresh build); the
        # prune counters accumulate candidate totals vs. exact rescores
        # across indexed queries, yielding the tenant's prune ratio.
        self._index_stats_lock = threading.Lock()
        self.index_lookups = 0
        self.index_usable = 0
        self.index_hits = 0
        self.prune_queries = 0
        self.prune_candidates_total = 0
        self.prune_candidates_rescored = 0
        # Ingest latency instruments.  Null until :meth:`bind_metrics` — a
        # standalone tenant (no service) pays nothing for them; the last-*
        # values are tracked unconditionally so ``stats()`` always has them.
        self._apply_ms_hist = NULL_HISTOGRAM
        self._snapshot_ms_hist = NULL_HISTOGRAM
        self.last_apply_ms: Optional[float] = None
        self.last_snapshot_ms: Optional[float] = None

    @property
    def sampler(self) -> ShardedWalkSampler:
        """The tenant engine's keyed walk sampler (the one every epoch uses)."""
        return self.engine.sampler

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Resolve this tenant's ingest-latency histograms from ``metrics``.

        Histogram names are shared across tenants (``ingest.apply_ms`` /
        ``ingest.snapshot_ms``): the registry view aggregates the process's
        ingest behaviour, while per-tenant ``stats()`` keeps the last-applied
        values.  Called by the owning service; a disabled registry hands back
        the null singletons, keeping the ingest path allocation-free.
        """
        self._apply_ms_hist = metrics.histogram("ingest.apply_ms")
        self._snapshot_ms_hist = metrics.histogram("ingest.snapshot_ms")

    # -- epoch publication and pinning ----------------------------------------

    def pin_epoch(self) -> EpochLease:
        """Lease the tenant's current epoch, publishing one if needed.

        The fast path — a current epoch exists and matches the graph's
        mutation version, or the writer is mid-apply (its publish is coming;
        readers not ordered after it belong on the old epoch) — is a single
        refcount bump.  The slow path takes the write lock: first pin ever,
        or a caller mutated the graph *directly* (bypassing :meth:`apply`),
        in which case a fresh epoch is published from the current state so
        direct mutations keep being picked up between batches.
        """
        current = self.epochs.current
        if current is not None and (
            self._applying
            or current.snapshot.graph_version == self.graph.version
        ):
            return self.epochs.pin()
        with self.write_lock:
            current = self.epochs.current
            if current is None or (
                current.snapshot.graph_version != self.graph.version
            ):
                self._publish_epoch()
            return self.epochs.pin()

    def _publish_epoch(
        self, dirty: Optional[List[int]] = None, since: Hashable = None
    ) -> bool:
        """Publish the engine's snapshot as the next epoch (caller holds the
        write lock).

        Re-binds the bundle store to the graph's current version first:
        with ``dirty`` (dense indices of the rows that changed since the
        snapshot token ``since``) the store carries its bundles forward,
        otherwise it drops them.  The return value says whether the store
        actually dropped entries; the engine snapshot then pins a versioned
        view of the re-bound store.  No re-freeze happens here: both CSR
        rebuild paths install their snapshot in the graph's per-version
        cache, so the engine's refreshed caches pin that very object.
        """
        invalidated = self.store.sync_version(
            (id(self.graph), self.graph.version), dirty=dirty, since=since
        )
        self.epochs.publish(self.engine.snapshot())
        return invalidated

    # -- mutation ingest ------------------------------------------------------

    def apply(self, log: MutationLog, verify: bool = False) -> MutationReport:
        """Apply a mutation log on the shadow state and publish a new epoch.

        The single-writer path: under the tenant's write lock, the log
        mutates the dict graph, the previous CSR snapshot (built on demand
        if this tenant was never queried) seeds an incremental rebuild over
        the log's dirty rows, and the result is published as the next epoch.
        In-flight queries keep answering on whatever epoch they pinned — the
        old CSR arrays and the versioned store view are immutable — so
        ingest never blocks the read path.  The tenant's bundle store is
        re-bound to the new version with the log's dirty rows, so its
        bundles are carried forward and repaired lazily; no other tenant is
        touched.
        """
        apply_start = time.perf_counter()
        with self.write_lock:
            self._applying = True
            try:
                previous = CSRGraph.from_uncertain(self.graph)
                dirty = log.apply_to(self.graph)
                start = time.perf_counter()
                try:
                    # Installed in the graph's per-version snapshot cache,
                    # where the engine's refreshed caches pick it up.
                    csr = CSRGraph.from_uncertain_incremental(
                        self.graph, previous, dirty, verify=verify
                    )
                    dirty_rows = [csr.index_of(vertex) for vertex in dirty]
                except InvalidParameterError:
                    # A caller mutated the graph behind our back in a way the
                    # incremental path cannot express; fall back to the full
                    # rebuild (and a cleared store) rather than failing the
                    # ingest.
                    dirty_rows = None
                    start = time.perf_counter()
                    CSRGraph.from_uncertain(self.graph)
                snapshot_ms = 1000.0 * (time.perf_counter() - start)
                entries = len(self.store)
                dropped = self._publish_epoch(dirty_rows, previous.snapshot_token)
                invalidated = entries if dropped else 0
                self.mutations_applied += 1
                self.ops_applied += len(log)
                apply_ms = 1000.0 * (time.perf_counter() - apply_start)
                self._snapshot_ms_hist.observe(snapshot_ms)
                self._apply_ms_hist.observe(apply_ms)
                self.last_snapshot_ms = snapshot_ms
                self.last_apply_ms = apply_ms
                return MutationReport(
                    graph=self.name,
                    ops=len(log),
                    dirty_rows=len(dirty),
                    version=self.graph.version,
                    num_vertices=self.graph.num_vertices,
                    num_arcs=self.graph.num_arcs,
                    invalidated_bundles=invalidated,
                    incremental=dirty_rows is not None,
                    snapshot_ms=snapshot_ms,
                )
            finally:
                self._applying = False

    # -- introspection --------------------------------------------------------

    def record_index_lookup(self, hit: bool, usable: bool) -> None:
        """Tally one top-k index lookup made on this tenant's behalf.

        ``usable`` — the lookup yielded an index (vs. a ``None`` fallback to
        the scan); ``hit`` — that index came from the epoch-scoped store
        rather than a fresh build.
        """
        with self._index_stats_lock:
            self.index_lookups += 1
            if usable:
                self.index_usable += 1
            if hit:
                self.index_hits += 1

    def record_prune(self, candidates_total: int, candidates_rescored: int) -> None:
        """Accumulate one indexed query's candidate / rescore counts."""
        with self._index_stats_lock:
            self.prune_queries += 1
            self.prune_candidates_total += int(candidates_total)
            self.prune_candidates_rescored += int(candidates_rescored)

    def topk_index_stats(self) -> Dict[str, object]:
        """The tenant's top-k index counters (a ``stats()`` sub-dict)."""
        with self._index_stats_lock:
            total = self.prune_candidates_total
            rescored = self.prune_candidates_rescored
            counters: Dict[str, object] = {
                "lookups": self.index_lookups,
                "usable": self.index_usable,
                "hits": self.index_hits,
                "misses": self.index_usable - self.index_hits,
                "pruned_queries": self.prune_queries,
                "candidates_total": total,
                "candidates_rescored": rescored,
                "prune_ratio": (1.0 - rescored / total) if total else 0.0,
            }
        store = self.engine.caches.topk_indexes
        counters["store"] = {"entries": len(store), **store.cache_stats()}
        return counters

    def stats(self) -> Dict[str, object]:
        """JSON-friendly per-tenant counters (the ``stats`` response shape)."""
        return {
            "graph": {
                "num_vertices": self.graph.num_vertices,
                "num_arcs": self.graph.num_arcs,
                "version": self.graph.version,
            },
            "store": self.store.stats.as_dict(),
            "store_entries": len(self.store),
            "store_bytes": self.store.current_bytes,
            "store_budget_bytes": self.store.budget_bytes,
            "mutations": self.mutations_applied,
            "mutation_ops": self.ops_applied,
            "num_walks": self.config.num_walks,
            "iterations": self.config.iterations,
            "max_num_walks": self.config.max_num_walks,
            "quotas": {
                "max_qps": self.config.max_qps,
                "max_inflight": self.config.max_inflight,
                "max_queue_depth": self.config.max_queue_depth,
            },
            "epochs": self.epochs.stats(),
            "topk_index": self.topk_index_stats(),
            "ingest": {
                "last_apply_ms": self.last_apply_ms,
                "last_snapshot_ms": self.last_snapshot_ms,
            },
            "caches": self.cache_stats(),
        }

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Every serving cache of this tenant in the uniform
        ``{hits, misses, evictions, bytes}`` shape."""
        caches = self.engine.caches
        return {
            "walk_bundles": self.store.cache_stats(),
            "topk_indexes": caches.topk_indexes.cache_stats(),
            "transitions": caches.transitions.cache_stats(),
            "speedup_tables": caches.speedup_tables.cache_stats(),
        }

    def __repr__(self) -> str:
        return f"GraphTenant({self.name!r}, {self.graph!r})"


class GraphRegistry:
    """Named :class:`GraphTenant` instances hosted in one service process.

    Parameters
    ----------
    defaults:
        The :class:`TenantConfig` applied to tenants created without
        explicit overrides.
    verify_mutations:
        When ``True``, every incremental snapshot rebuild triggered by
        :meth:`apply` is cross-checked against a full rebuild (slow, but a
        hard correctness net — useful in tests and canary deployments).

    All lifecycle operations are lock-protected; tenant lookups return the
    live object, so query answering never holds the registry lock.
    """

    def __init__(
        self,
        defaults: Optional[TenantConfig] = None,
        verify_mutations: bool = False,
    ) -> None:
        self.defaults = defaults if defaults is not None else TenantConfig()
        self.verify_mutations = verify_mutations
        self._tenants: Dict[str, GraphTenant] = {}
        self._lock = threading.Lock()
        self._metrics: Optional[MetricsRegistry] = None

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Wire every current and future tenant to ``metrics``.

        Called once by the owning service at construction; tenants created
        afterwards (dynamic ``create_graph`` ops) are bound in :meth:`create`.
        """
        with self._lock:
            self._metrics = metrics
            tenants = list(self._tenants.values())
        for tenant in tenants:
            tenant.bind_metrics(metrics)

    # -- lifecycle ------------------------------------------------------------

    def create(
        self,
        name: str,
        graph: Optional[UncertainGraph] = None,
        **overrides: object,
    ) -> GraphTenant:
        """Register a new tenant (empty graph unless one is supplied).

        ``overrides`` are :class:`TenantConfig` fields; anything not given
        comes from the registry defaults.  Creating an existing name raises.
        """
        if not isinstance(name, str) or not name:
            raise InvalidParameterError(f"tenant name must be a non-empty string, got {name!r}")
        config = self.defaults.replace(**overrides)
        tenant = GraphTenant(name, graph if graph is not None else UncertainGraph(), config)
        with self._lock:
            if name in self._tenants:
                raise InvalidParameterError(f"graph {name!r} already exists")
            self._tenants[name] = tenant
            metrics = self._metrics
        if metrics is not None:
            tenant.bind_metrics(metrics)
        return tenant

    def get(self, name: str) -> GraphTenant:
        """The tenant registered under ``name``; raises if unknown."""
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                registered = sorted(self._tenants)
        if tenant is None:
            raise InvalidParameterError(
                f"unknown graph {name!r}; registered: {registered}"
            )
        return tenant

    def drop(self, name: str) -> None:
        """Unregister a tenant."""
        with self._lock:
            if self._tenants.pop(name, None) is None:
                raise InvalidParameterError(f"unknown graph {name!r}")

    def close(self) -> None:
        """Drop every tenant."""
        with self._lock:
            self._tenants.clear()

    def __enter__(self) -> "GraphRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- mutation ingest ------------------------------------------------------

    def apply(self, name: str, log: MutationLog) -> MutationReport:
        """Apply a mutation log to one tenant (others are untouched)."""
        return self.get(name).apply(log, verify=self.verify_mutations)

    # -- introspection --------------------------------------------------------

    def names(self) -> List[str]:
        """Registered tenant names, in creation order."""
        with self._lock:
            return list(self._tenants)

    def items(self) -> List[Tuple[str, GraphTenant]]:
        """``(name, tenant)`` pairs, in creation order."""
        with self._lock:
            return list(self._tenants.items())

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant counters, keyed by tenant name."""
        return {name: tenant.stats() for name, tenant in self.items()}

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __repr__(self) -> str:
        return f"GraphRegistry({self.names()!r})"
