"""Snapshot-scoped method executors: every paper method, batched and pinned.

This module is the single dispatch point for the paper's four algorithms.
Each method is implemented as a :class:`MethodExecutor` constructed from an
:class:`EngineSnapshot` — one immutable view of a graph state (pinned
:class:`~repro.graph.csr.CSRGraph`, snapshot-scoped :class:`EngineCaches`,
engine parameters, and a :class:`WalkSource` that resolves walk bundles) —
and exposing one uniform contract::

    executor = executor_for(method)(snapshot)
    results = executor.run_batch(pairs, overrides)     # List[SimRankResult]

Both front ends route through it: :class:`~repro.core.engine.SimRankEngine`
builds a snapshot of its own (possibly mutable) graph per call, while the
serving layer pins epoch-published snapshots and answers whole batches on a
read pool.  Because executors only ever touch the snapshot (never the
mutable dict graph), every method — not just sampling — answers
bit-identically to a standalone engine built at the pinned graph version,
even while mutations land concurrently.

Batched shared-prefix work
--------------------------
The exact-path executors share their expensive stage *per unique endpoint
of the batch* instead of per pair, mirroring how sampling shares walk
bundles (and following the partial-sums sharing of Lizorkin et al., VLDB
2008, and the fingerprint-reuse lineage of Fogaras & Rácz, WWW 2005):

* ``baseline`` — the single-source transition distributions ``Pr(w →k ·)``
  are computed once per unique endpoint and combined per pair, so a batch
  of ``p`` pairs over ``q`` unique endpoints costs ``q`` walk-extension
  runs instead of ``2p``.
* ``two_phase`` (SR-TS) — the exact prefix shares those same per-endpoint
  distributions (to ``l`` steps), and the sampled tail shares per-endpoint
  walk bundles exactly like ``sampling``.
* ``speedup`` (SR-SP) — the exact prefix is shared as above, and the
  bit-vector propagation runs once per unique ``(endpoint, side)`` over the
  snapshot's cached filter vectors.
* ``sampling`` — per-endpoint walk bundles resolved through the snapshot's
  :class:`WalkSource` (sampled once, reused across every pair and batch
  that hits the same store).

Determinism
-----------
All randomness is keyed, never stateful: walk bundles derive from the
``(seed, vertex, twin, shard)`` world keys of
:func:`repro.core.batch_walks.shard_world_keys`, and SR-SP filter pairs
from per-``(side, num_walks)`` seed sequences inside :class:`EngineCaches`.
Results therefore do not depend on query order, batch composition, or which
thread answers — the property the epoch-pinned service is built on.  The
executors are the only estimator path: the scalar samplers in
:mod:`repro.core.sampling` and :mod:`repro.core.speedup` are test oracles
that no option routes to.

Every executor declares the overrides it accepts
(:attr:`MethodExecutor.accepted_overrides`); an override that is
meaningless for a method (e.g. ``num_walks`` on the exact ``baseline``) is
rejected with a clear error instead of being silently ignored.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    ClassVar,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.core.batch_walks import (
    DEFAULT_SHARD_SIZE,
    bundle_key,
    endpoint_world_keys,
    meeting_probabilities_against_many,
    meeting_probabilities_from_matrices,
    sample_walk_matrix_keyed,
)
from repro.core.simrank import (
    DEFAULT_EXACT_PREFIX,
    SimRankResult,
    meeting_probability,
    meeting_probabilities_from_distributions,
    simrank_from_meeting_probabilities,
)
from repro.core.speedup import (
    FilterVectors,
    packed_meeting_probabilities,
    propagate_packed_tables,
)
from repro.core.topk_index import DEFAULT_INDEX_BUDGET_BYTES, TopKIndexStore
from repro.obs import NULL_SCOPE
from repro.core.transition import single_source_transition_probabilities
from repro.core.walks import AlphaCache
from repro.graph.csr import CSRGraph, CSRGraphView
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError
from repro.utils.stats import DEFAULT_Z, batch_means_stderr, normal_interval

Vertex = Hashable

#: The algorithms of the paper, using its names (the executor registry keys).
METHODS = ("baseline", "sampling", "two_phase", "speedup")

#: Default state budget of the exact walk-extension procedure.
DEFAULT_MAX_STATES = 500_000

#: A walk-bundle need: (dense vertex index, twin flag, walk count).
BundleNeed = Tuple[int, bool, int]

#: Leading spawn-key component of the filter-vector seed streams.  Walk world
#: keys use 3-component spawn keys ``(vertex, twin, shard)``; filter streams
#: use 4-component keys ``(_FILTER_STREAM, side, num_walks, rebuild)``, so
#: the two families can never collide.
_FILTER_STREAM = 2

#: Walk-count ceiling of adaptive-fidelity runs when the caller provides no
#: admission cap (``TenantConfig.max_num_walks``) of its own: the growth
#: loop stops here even if the CI half-width target was not met.
DEFAULT_ADAPTIVE_MAX_WALKS = 16384

#: Default budget of the cross-batch transition cache, measured in stored
#: distribution entries (vertex → probability pairs), not bytes: the dicts
#: the exact walk extension returns have no cheap byte size, but their entry
#: count tracks their footprint closely.
DEFAULT_TRANSITION_CACHE_STATES = 250_000

#: Approximate bytes per stored transition-cache state, used only so the
#: uniform ``cache_stats()`` shape can report a comparable ``bytes`` figure:
#: one dict slot (key + value references + hash-table overhead) plus the
#: boxed vertex and float, measured empirically at ~96 B on CPython 3.11.
TRANSITION_STATE_BYTES = 96


class TransitionCache:
    """Cross-batch LRU for exact single-source transition distributions.

    Executors keep a batch-local distribution dict so one batch never
    recomputes an endpoint; this cache extends that sharing *across*
    batches (and across the read pool's executors) at one snapshot — the
    access pattern of the index's exact re-scoring phase, where successive
    pruned chunks keep hitting the same query endpoint.  Entries are the
    immutable lists :func:`single_source_transition_probabilities` returns;
    the budget counts stored distribution entries and evicts least recently
    used endpoints, mirroring the walk-bundle store's discipline.
    """

    def __init__(self, max_states: int = DEFAULT_TRANSITION_CACHE_STATES):
        if max_states <= 0:
            raise InvalidParameterError(
                f"transition cache budget must be positive, got {max_states}"
            )
        self.max_states = int(max_states)
        self._entries: "OrderedDict[tuple, Tuple[List[Dict[Vertex, float]], int]]" = (
            OrderedDict()
        )
        self._states = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple) -> "List[Dict[Vertex, float]] | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: tuple, distributions: "List[Dict[Vertex, float]]") -> None:
        size = sum(len(level) for level in distributions) + 1
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._states -= previous[1]
            if size > self.max_states:
                self.evictions += 1
                return
            self._entries[key] = (distributions, size)
            self._states += size
            while self._states > self.max_states:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._states -= dropped
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._states = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "states": self._states,
                "max_states": self.max_states,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def cache_stats(self) -> Dict[str, int]:
        """The uniform ``{hits, misses, evictions, bytes}`` cache shape.

        ``bytes`` is estimated from the state budget (the cache's native
        unit) at :data:`TRANSITION_STATE_BYTES` per state, so the three
        serving caches report comparable figures.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bytes": self._states * TRANSITION_STATE_BYTES,
            }


class EngineCaches:
    """Snapshot-scoped shared state of one engine.

    Everything worth sharing across queries at one graph snapshot lives
    here: the pinned :class:`~repro.graph.csr.CSRGraph` (plus its
    :class:`~repro.graph.csr.CSRGraphView`, the dict-graph facade the exact
    algorithms read), the α cache of the exact algorithms, and the SR-SP
    filter-vector pairs (one independently drawn u/v pair per
    ``num_walks``).  The object is identified by ``key`` — the
    ``(id(graph), graph.version)`` snapshot identity — and is *replaced
    wholesale*, never mutated across versions: an engine builds a fresh
    instance when its graph moves on, while consumers that pinned the old
    instance (an epoch-pinned :class:`EngineSnapshot`) keep a
    self-consistent view of the caches exactly as they were.

    Filter pairs are derived from ``seed`` through per-``(side, num_walks)``
    :class:`numpy.random.SeedSequence` streams, so they are a pure function
    of ``(snapshot, seed)`` — two engines with the same seed over equal
    snapshots build identical filters, which is what pins SR-SP answers
    across the service and standalone engines.  Lazy builds take an internal
    lock (read workers may race); α-cache fills are idempotent dict inserts
    of deterministic values, safe under the GIL.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        key: Tuple[object, ...],
        seed: int,
        csr: Optional[CSRGraph] = None,
        topk_index_budget_bytes: Optional[int] = DEFAULT_INDEX_BUDGET_BYTES,
        transition_cache_states: int = DEFAULT_TRANSITION_CACHE_STATES,
    ) -> None:
        self.key = key
        self._graph = graph
        self.seed = int(seed)
        self.csr = csr if csr is not None else CSRGraph.from_uncertain(graph)
        self.view = CSRGraphView(self.csr)
        self.alpha_cache = AlphaCache(self.view)
        # Snapshot-scoped like everything else here: replaced wholesale when
        # the graph moves on, so epoch retirement invalidates both for free.
        self.topk_indexes = TopKIndexStore(topk_index_budget_bytes)
        self.transitions = TransitionCache(transition_cache_states)
        self._filter_pairs: Dict[int, Tuple[FilterVectors, FilterVectors]] = {}
        self._rebuilds: Dict[int, int] = {}
        self._lock = threading.Lock()

    def filter_pair(self, num_walks: int) -> Tuple[FilterVectors, FilterVectors]:
        """The (u-side, v-side) SR-SP filter vectors for one walk count.

        The two sets are drawn independently so the two endpoint walk
        bundles of a query stay statistically independent, as the Sampling
        estimator assumes (one shared set would make process ``i`` walk the
        same possible world from both endpoints); both are built lazily on
        first use and reused for every later query at this snapshot and
        walk count.
        """
        with self._lock:
            pair = self._filter_pairs.get(int(num_walks))
            if pair is None:
                pair = self._build_pair_locked(int(num_walks))
            return pair

    def rebuild_filter_pair(
        self, num_walks: int
    ) -> Tuple[FilterVectors, FilterVectors]:
        """Redraw both filter sets (a fresh offline sampling pass).

        Each rebuild advances the pair's seed stream, so the redraw really
        is a fresh draw — while staying deterministic given ``(snapshot,
        seed, rebuild count)``.
        """
        with self._lock:
            walks = int(num_walks)
            self._rebuilds[walks] = self._rebuilds.get(walks, 0) + 1
            return self._build_pair_locked(walks)

    def _build_pair_locked(self, num_walks: int) -> Tuple[FilterVectors, FilterVectors]:
        rebuild = self._rebuilds.get(num_walks, 0)
        pair = tuple(
            FilterVectors(
                self._graph,
                num_walks,
                rng=np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=self.seed,
                        spawn_key=(_FILTER_STREAM, side, num_walks, rebuild),
                    )
                ),
                csr=self.csr,
            )
            for side in (0, 1)
        )
        self._filter_pairs[num_walks] = pair
        return pair


class WalkSource:
    """Resolves walk-bundle needs, serving a store first and sampling misses.

    A bundle need is ``(vertex_index, twin, num_walks)``; :meth:`resolve`
    returns direct references for the duration of the batch, so concurrent
    evictions cannot pull a bundle out from under a query that planned on
    it.  Concrete sources fix the key namespace (:meth:`store_key`), the
    backing store (:meth:`_get` / :meth:`_put`) and the sampler
    (:meth:`_sample`); every implementation of the same ``(seed,
    shard_size)`` scheme yields bit-identical bundles.
    """

    def store_key(
        self, vertex_index: int, twin: bool, length: int, num_walks: int
    ) -> tuple:
        """Bundle-store key of one endpoint under this source's scheme."""
        raise NotImplementedError

    def _get(self, key: tuple) -> Optional[np.ndarray]:
        return None

    def _put(self, key: tuple, bundle: np.ndarray) -> np.ndarray:
        return bundle

    def _sample(
        self,
        csr: CSRGraph,
        requests: Sequence[Tuple[int, bool]],
        length: int,
        num_walks: int,
    ) -> Dict[Tuple[int, bool], np.ndarray]:
        raise NotImplementedError

    def _sample_mixed(
        self, csr: CSRGraph, needs: Sequence[BundleNeed], length: int
    ) -> Dict[BundleNeed, np.ndarray]:
        """Sample needs whose walk counts may differ.

        The base implementation groups by walk count and runs one
        :meth:`_sample` sweep per group; sources backed by a batched sampler
        override this to share a single sweep across the whole mixed batch.
        """
        by_walks: Dict[int, List[BundleNeed]] = {}
        for need in needs:
            by_walks.setdefault(need[2], []).append(need)
        bundles: Dict[BundleNeed, np.ndarray] = {}
        for walks, group in by_walks.items():
            sampled = self._sample(
                csr, [(vertex_index, twin) for vertex_index, twin, _ in group],
                length, walks,
            )
            for vertex_index, twin, _ in group:
                bundles[(vertex_index, twin, walks)] = sampled[(vertex_index, twin)]
        return bundles

    def resolve(
        self, csr: CSRGraph, length: int, needs: Iterable[BundleNeed]
    ) -> Dict[BundleNeed, np.ndarray]:
        """Bundles for every need (duplicates collapse; misses sampled)."""
        bundles: Dict[BundleNeed, np.ndarray] = {}
        missing: List[BundleNeed] = []
        seen = set()
        for vertex_index, twin, walks in needs:
            need = (int(vertex_index), bool(twin), int(walks))
            if need in seen:
                continue
            seen.add(need)
            cached = self._get(self.store_key(need[0], need[1], length, need[2]))
            if cached is None:
                missing.append(need)
            else:
                bundles[need] = cached
        if missing:
            sampled = self._sample_mixed(csr, missing, length)
            for need in missing:
                bundle = sampled[need]
                self._put(self.store_key(need[0], need[1], length, need[2]), bundle)
                bundles[need] = bundle
        return bundles


class SerialWalkSource(WalkSource):
    """The keyed sampling scheme evaluated serially in the calling thread.

    The single-process reference implementation of the deterministic
    ``(seed, shard_size)`` scheme — the same world keys and walks as the
    service's :class:`~repro.service.sharding.ShardedWalkSampler`, without a
    worker pool.  ``store`` may be a
    :class:`~repro.service.bundle_store.WalkBundleStore` (the engine's
    ``bundle_store=``) or any ``get``/``put`` mapping; ``None`` samples every
    need afresh.
    """

    def __init__(
        self,
        seed: int,
        shard_size: int = DEFAULT_SHARD_SIZE,
        store: "object | None" = None,
    ) -> None:
        if shard_size < 1:
            raise InvalidParameterError(f"shard_size must be >= 1, got {shard_size}")
        self.seed = int(seed)
        self.shard_size = int(shard_size)
        self._store = store

    def store_key(
        self, vertex_index: int, twin: bool, length: int, num_walks: int
    ) -> tuple:
        return ("keyed", self.seed, self.shard_size) + bundle_key(
            vertex_index, twin, length, num_walks
        )

    def _get(self, key: tuple) -> Optional[np.ndarray]:
        return self._store.get(key) if self._store is not None else None

    def _put(self, key: tuple, bundle: np.ndarray) -> np.ndarray:
        return self._store.put(key, bundle) if self._store is not None else bundle

    def _sample(
        self,
        csr: CSRGraph,
        requests: Sequence[Tuple[int, bool]],
        length: int,
        num_walks: int,
    ) -> Dict[Tuple[int, bool], np.ndarray]:
        # A uniform batch is a mixed batch whose needs share one walk count.
        needs = [(vertex_index, twin, num_walks) for vertex_index, twin in requests]
        bundles = self._sample_mixed(csr, needs, length)
        return {need[:2]: bundle for need, bundle in bundles.items()}

    def _sample_mixed(
        self, csr: CSRGraph, needs: Sequence[BundleNeed], length: int
    ) -> Dict[BundleNeed, np.ndarray]:
        sources = np.repeat(
            np.asarray([need[0] for need in needs], dtype=np.int64),
            [need[2] for need in needs],
        )
        keys = np.concatenate(
            [
                endpoint_world_keys(self.seed, vertex_index, twin, walks, self.shard_size)
                for vertex_index, twin, walks in needs
            ]
        )
        matrix = sample_walk_matrix_keyed(csr, sources, length, keys)
        bundles: Dict[BundleNeed, np.ndarray] = {}
        offset = 0
        for need in needs:
            bundles[need] = matrix[offset : offset + need[2]]
            offset += need[2]
        return bundles


class PrefetchedWalkSource(WalkSource):
    """A :class:`WalkSource` overlay serving pre-resolved bundles first.

    Wraps an inner source plus a ``{(vertex, twin, length, walks): bundle}``
    overlay; needs absent from the overlay fall through to the inner source
    untouched.  Used by the service to resolve a batch's walk needs in one
    mixed sweep up front while group executors keep their per-need ``resolve``
    calls unchanged.
    """

    def __init__(self, inner: WalkSource, bundles: Dict[tuple, np.ndarray]) -> None:
        self.inner = inner
        self._bundles = dict(bundles)

    def store_key(
        self, vertex_index: int, twin: bool, length: int, num_walks: int
    ) -> tuple:
        return self.inner.store_key(vertex_index, twin, length, num_walks)

    def _get(self, key: tuple) -> Optional[np.ndarray]:
        hit = self._bundles.get(key)
        return hit if hit is not None else self.inner._get(key)

    def _put(self, key: tuple, bundle: np.ndarray) -> np.ndarray:
        return self.inner._put(key, bundle)

    def _sample(
        self,
        csr: CSRGraph,
        requests: Sequence[Tuple[int, bool]],
        length: int,
        num_walks: int,
    ) -> Dict[Tuple[int, bool], np.ndarray]:
        return self.inner._sample(csr, requests, length, num_walks)

    def _sample_mixed(
        self, csr: CSRGraph, needs: Sequence[BundleNeed], length: int
    ) -> Dict[BundleNeed, np.ndarray]:
        return self.inner._sample_mixed(csr, needs, length)


@dataclass(frozen=True)
class EngineSnapshot:
    """Everything one query batch needs, frozen at one graph version.

    Instances are immutable and shared: any number of read workers may
    answer from the same snapshot concurrently.  ``caches`` is the engine's
    snapshot-scoped state (α cache, SR-SP filters, pinned CSR view) —
    replaced wholesale when the graph moves on, so a pinned snapshot keeps a
    consistent view of the retired version.  ``walks`` resolves walk-bundle
    needs (serially for standalone engines, through the tenant's sharded
    sampler and epoch store view in the service); ``store_view`` is the
    service's versioned bundle-store view (``None`` for engine-built
    snapshots).  ``epoch_id`` is 0 until an
    :class:`~repro.service.epoch.EpochManager` publishes the snapshot.
    """

    epoch_id: int
    graph_version: int
    csr: CSRGraph
    store_view: "object | None"
    caches: EngineCaches
    decay: float
    iterations: int
    num_walks: int
    exact_prefix: int = DEFAULT_EXACT_PREFIX
    walks: Optional[WalkSource] = None

    @property
    def token(self) -> "Hashable | None":
        """The snapshot identity ``(graph_id, version)`` this epoch pinned."""
        return None if self.store_view is None else self.store_view.token


class MethodExecutor:
    """One paper method, scoped to one :class:`EngineSnapshot`.

    Subclasses implement :meth:`_run` over a validated pair list; the public
    :meth:`run_batch` adds override validation and endpoint checks.  An
    executor instance is cheap and batch-scoped: shared prefix work
    (transition distributions, propagation tables) accumulates on the
    instance, so reusing one executor across the chunks of a streamed query
    keeps sharing it, while a fresh executor starts clean.

    ``obs_scope`` is the executor's observability hook: a
    :class:`repro.obs.StageScope` (or the no-op :data:`repro.obs.NULL_SCOPE`
    default) that times the method's internal stages — ``shared_prefix``
    (batched exact transition distributions), ``walk_sampling`` (bundle
    resolution), ``meeting_tails`` (Monte-Carlo meeting estimation) and
    ``propagation`` (SR-SP packed tables) — into latency histograms and, when
    the caller bound query traces to the scope, into per-query spans.  The
    service rebinds it per batch subset; standalone engines never touch it.
    """

    method: ClassVar[str] = ""
    accepted_overrides: ClassVar[FrozenSet[str]] = frozenset()

    def __init__(self, snapshot: EngineSnapshot) -> None:
        self.snapshot = snapshot
        self.obs_scope = NULL_SCOPE
        # Per-executor shared prefix work: single-source transition
        # distributions keyed by (endpoint, steps, max_states).
        self._distributions: Dict[tuple, List[Dict[Vertex, float]]] = {}

    # -- override validation ---------------------------------------------------

    @classmethod
    def check_overrides(cls, overrides: Dict[str, object]) -> None:
        """Reject overrides the method does not accept, with a clear error."""
        unknown = sorted(set(overrides) - set(cls.accepted_overrides))
        if unknown:
            accepted = sorted(cls.accepted_overrides)
            raise InvalidParameterError(
                f"method {cls.method!r} does not accept override(s) {unknown}; "
                f"accepted overrides: {accepted if accepted else 'none'}"
            )

    # -- the uniform batch contract --------------------------------------------

    def reset_shared_state(self) -> None:
        """Drop the per-batch shared prefix work.

        Streaming callers that feed one executor an unbounded pair stream
        (the service's default all-pairs top-k) call this between chunks so
        the per-endpoint distribution cache stays bounded by one chunk's
        endpoints instead of growing with the graph.
        """
        self._distributions.clear()

    def run_batch(
        self,
        pairs: Iterable[Tuple[Vertex, Vertex]],
        overrides: "Dict[str, object] | None" = None,
    ) -> List[SimRankResult]:
        """Score every pair against the pinned snapshot, sharing batch work."""
        overrides = dict(overrides or {})
        self.check_overrides(overrides)
        pair_list = [(u, v) for u, v in pairs]
        csr = self.snapshot.csr
        for u, v in pair_list:
            if not csr.has_vertex(u) or not csr.has_vertex(v):
                raise InvalidParameterError(
                    f"both query vertices must be in the graph: {u!r}, {v!r}"
                )
        if not pair_list:
            return []
        return self._run(pair_list, overrides)

    def _run(
        self, pairs: List[Tuple[Vertex, Vertex]], overrides: Dict[str, object]
    ) -> List[SimRankResult]:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------

    def _effective_walks(self, overrides: Dict[str, object]) -> int:
        walks = overrides.get("num_walks")
        walks = self.snapshot.num_walks if walks is None else int(walks)
        if walks < 1:
            raise InvalidParameterError(f"num_walks must be >= 1, got {walks}")
        return walks

    def _exact_distributions(
        self, endpoints: Iterable[Vertex], steps: int, max_states: int
    ) -> Dict[Vertex, List[Dict[Vertex, float]]]:
        """Single-source transition distributions, one run per unique endpoint.

        This is the batched exact-prefix stage: a batch of ``p`` pairs over
        ``q`` unique endpoints performs ``q`` walk-extension runs instead of
        ``2p``, all against the pinned CSR view and the snapshot's shared α
        cache.
        """
        caches = self.snapshot.caches
        out: Dict[Vertex, List[Dict[Vertex, float]]] = {}
        with self.obs_scope.stage("shared_prefix"):
            for endpoint in endpoints:
                if endpoint in out:
                    continue
                key = (endpoint, steps, max_states)
                distributions = self._distributions.get(key)
                if distributions is None:
                    # Batch-local miss: consult the snapshot's cross-batch LRU
                    # before paying for a walk-extension run.  Entries are
                    # shared read-only, so handing out the same list to many
                    # executors is safe.
                    shared = getattr(caches, "transitions", None)
                    distributions = shared.get(key) if shared is not None else None
                    if distributions is None:
                        distributions = single_source_transition_probabilities(
                            caches.view,
                            endpoint,
                            steps,
                            max_states=max_states,
                            alpha_cache=caches.alpha_cache,
                        )
                        if shared is not None:
                            shared.put(key, distributions)
                    self._distributions[key] = distributions
                out[endpoint] = distributions
        return out

    def _resolve_bundles(
        self, pairs: Sequence[Tuple[Vertex, Vertex]], walks: int
    ) -> Tuple[List[Tuple[int, int]], Dict[BundleNeed, np.ndarray]]:
        """Per-endpoint walk bundles of a batch (self-pairs get twin bundles)."""
        source = self.snapshot.walks
        if source is None:
            raise InvalidParameterError(
                f"snapshot carries no walk source; method {self.method!r} "
                "needs one for its sampled stage"
            )
        csr = self.snapshot.csr
        needs: List[BundleNeed] = []
        index_pairs: List[Tuple[int, int]] = []
        for u, v in pairs:
            u_index, v_index = csr.index_of(u), csr.index_of(v)
            needs.append((u_index, False, walks))
            needs.append((v_index, u_index == v_index, walks))
            index_pairs.append((u_index, v_index))
        with self.obs_scope.stage("walk_sampling"):
            bundles = source.resolve(csr, self.snapshot.iterations, needs)
        return index_pairs, bundles

    def _sampled_meetings(
        self, pairs: Sequence[Tuple[Vertex, Vertex]], walks: int
    ) -> List[List[float]]:
        """Monte-Carlo ``m(0) … m(n)`` per pair from shared walk bundles.

        Pairs sharing their first endpoint (the shape top-k queries produce)
        are compared against the query bundle in one broadcasted pass; the
        floats are identical to the per-pair computation either way.
        """
        iterations = self.snapshot.iterations
        index_pairs, bundles = self._resolve_bundles(pairs, walks)
        meetings: List[Optional[List[float]]] = [None] * len(pairs)
        with self.obs_scope.stage("meeting_tails"):
            grouped: Dict[int, List[int]] = {}
            for position, (u_index, v_index) in enumerate(index_pairs):
                if u_index == v_index:
                    meetings[position] = meeting_probabilities_from_matrices(
                        bundles[(u_index, False, walks)],
                        bundles[(v_index, True, walks)],
                        iterations,
                        True,
                    )
                else:
                    grouped.setdefault(u_index, []).append(position)
            for u_index, positions in grouped.items():
                if len(positions) == 1:
                    position = positions[0]
                    v_index = index_pairs[position][1]
                    meetings[position] = meeting_probabilities_from_matrices(
                        bundles[(u_index, False, walks)],
                        bundles[(v_index, False, walks)],
                        iterations,
                        False,
                    )
                    continue
                tails = meeting_probabilities_against_many(
                    bundles[(u_index, False, walks)],
                    [
                        bundles[(index_pairs[position][1], False, walks)]
                        for position in positions
                    ],
                    iterations,
                )
                for position, row in zip(positions, tails):
                    meetings[position] = [0.0] + row.tolist()
        return meetings  # type: ignore[return-value]

    def _result(
        self,
        u: Vertex,
        v: Vertex,
        meeting: Sequence[float],
        details: Dict[str, object],
    ) -> SimRankResult:
        snapshot = self.snapshot
        if snapshot.epoch_id:
            # Which immutable snapshot answered — the graph state the score
            # is bit-identical to under concurrent ingest.
            details["epoch"] = snapshot.epoch_id
            details["graph_version"] = snapshot.graph_version
        return SimRankResult(
            u=u,
            v=v,
            score=simrank_from_meeting_probabilities(meeting, snapshot.decay),
            meeting_probabilities=tuple(meeting),
            decay=snapshot.decay,
            iterations=snapshot.iterations,
            method=self.method,
            details=details,
        )


class BaselineExecutor(MethodExecutor):
    """Exact meeting probabilities (Section VI-A), batched per endpoint."""

    method = "baseline"
    accepted_overrides = frozenset({"max_states"})

    def _run(
        self, pairs: List[Tuple[Vertex, Vertex]], overrides: Dict[str, object]
    ) -> List[SimRankResult]:
        max_states = int(overrides.get("max_states", DEFAULT_MAX_STATES))
        distributions = self._exact_distributions(
            (endpoint for pair in pairs for endpoint in pair),
            self.snapshot.iterations,
            max_states,
        )
        results = []
        for u, v in pairs:
            meeting = meeting_probabilities_from_distributions(
                distributions[u], distributions[v]
            )
            results.append(
                self._result(
                    u, v, meeting, {"max_states": max_states, "shared_prefix": True}
                )
            )
        return results


class SamplingExecutor(MethodExecutor):
    """Monte-Carlo estimates (Section VI-B) from shared keyed walk bundles."""

    method = "sampling"
    accepted_overrides = frozenset({"num_walks"})

    def _run(
        self, pairs: List[Tuple[Vertex, Vertex]], overrides: Dict[str, object]
    ) -> List[SimRankResult]:
        walks = self._effective_walks(overrides)
        meetings = self._sampled_meetings(pairs, walks)
        return [
            self._result(u, v, meeting, {"num_walks": walks, "shared_bundles": True})
            for (u, v), meeting in zip(pairs, meetings)
        ]

    # -- adaptive fidelity -----------------------------------------------------

    def run_adaptive(
        self,
        pair: Tuple[Vertex, Vertex],
        target: float,
        shard_size: int = DEFAULT_SHARD_SIZE,
        start_walks: Optional[int] = None,
        max_walks: Optional[int] = None,
        z: float = DEFAULT_Z,
    ) -> SimRankResult:
        """Grow one pair's walk count until its CI half-width meets ``target``.

        The shard-incremental loop behind the service's ``accuracy=`` query
        mode.  Walk counts grow in whole-shard doublings — and because the
        keyed world-key scheme makes an ``N``-walk bundle the exact prefix
        of a ``2N``-walk bundle, every round *extends* the previous one
        deterministically rather than resampling it.  Each round:

        1. resolve the pair's bundles at the current walk count (store hits
           reuse earlier rounds' shards for free where the store serves
           them),
        2. compute the full-bundle point estimate — **bit-identical** to a
           plain ``sampling`` query at the same ``num_walks``,
        3. estimate the standard error of that estimate from the
           between-shard (batch-means) spread of per-shard scores,
        4. stop when ``z * stderr <= target`` or the walk ceiling is hit,
           else double.

        ``max_walks`` caps the growth (callers pass the tenant's
        ``max_num_walks`` admission cap; :data:`DEFAULT_ADAPTIVE_MAX_WALKS`
        applies when there is none).  The returned
        :class:`~repro.core.simrank.SimRankResult` carries the interval in
        ``details``: ``ci_low`` / ``ci_high`` (normal interval on the
        batch-means stderr, clipped to ``[0, 1]``), ``walks_used``,
        ``accuracy_target``, ``ci_halfwidth``, ``adaptive_rounds`` and
        ``converged``.
        """
        if not 0.0 < float(target) < 1.0:
            raise InvalidParameterError(
                f"accuracy target must be in (0, 1), got {target}"
            )
        if shard_size < 1:
            raise InvalidParameterError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        ceiling = int(max_walks) if max_walks is not None else DEFAULT_ADAPTIVE_MAX_WALKS
        if ceiling < 2:
            raise InvalidParameterError(
                f"adaptive walk ceiling must be >= 2, got {ceiling}"
            )
        # Start at two whole shards (the batch-means stderr needs at least
        # two batches), or at the caller's requested count rounded up to
        # whole shards, never past the ceiling.
        start = 2 * shard_size if start_walks is None else int(start_walks)
        start = max(2, -(-start // shard_size) * shard_size)
        walks = min(start, ceiling)

        snapshot = self.snapshot
        csr = snapshot.csr
        u, v = pair
        twin = csr.index_of(u) == csr.index_of(v)
        rounds = 0
        while True:
            rounds += 1
            _, bundles = self._resolve_bundles([pair], walks)
            bundle_u = bundles[(csr.index_of(u), False, walks)]
            bundle_v = bundles[(csr.index_of(v), twin, walks)]
            # The full-bundle estimate, through the same meeting computation
            # the plain batched path uses for a single pair.
            meeting = meeting_probabilities_from_matrices(
                bundle_u, bundle_v, snapshot.iterations, twin
            )
            estimate = simrank_from_meeting_probabilities(meeting, snapshot.decay)
            shard_scores = self._per_shard_scores(
                bundle_u, bundle_v, twin, shard_size
            )
            stderr = batch_means_stderr(shard_scores)
            halfwidth = z * stderr
            if halfwidth <= target or walks >= ceiling:
                break
            walks = min(walks * 2, ceiling)
        ci_low, ci_high = normal_interval(estimate, stderr, z)
        result = self._result(
            u,
            v,
            meeting,
            {
                "num_walks": walks,
                "shared_bundles": True,
                "accuracy_target": float(target),
                "ci_low": ci_low,
                "ci_high": ci_high,
                "ci_halfwidth": halfwidth,
                "ci_z": float(z),
                "walks_used": walks,
                "adaptive_rounds": rounds,
                "converged": halfwidth <= target,
            },
        )
        return result

    def _per_shard_scores(
        self,
        bundle_u: np.ndarray,
        bundle_v: np.ndarray,
        twin: bool,
        shard_size: int,
    ) -> List[float]:
        """Per-shard SimRank scores of one pair's paired walk bundles.

        Walk rows pair positionally, so slicing both bundles by the shard
        scheme's row ranges yields independent batch estimates whose
        weighted mean decomposes the full-bundle score (the score is linear
        in the per-step meeting proportions).  A walk count below two
        shards is split in half so the variance estimate always has two
        batches.
        """
        walks = bundle_u.shape[0]
        starts = list(range(0, walks, shard_size))
        if len(starts) < 2:
            starts = [0, max(1, walks // 2)]
        iterations = self.snapshot.iterations
        decay = self.snapshot.decay
        scores: List[float] = []
        for position, start in enumerate(starts):
            stop = starts[position + 1] if position + 1 < len(starts) else walks
            meeting = meeting_probabilities_from_matrices(
                bundle_u[start:stop], bundle_v[start:stop], iterations, twin
            )
            scores.append(simrank_from_meeting_probabilities(meeting, decay))
        return scores


class TwoPhaseExecutor(MethodExecutor):
    """SR-TS (Section VI-C): shared exact prefix + shared sampled tail.

    The two-phase algorithm splits the iteration range at ``l`` (the
    *exact prefix*).  For ``k <= l`` the meeting probabilities ``m(k)`` are
    computed exactly with the Baseline machinery: short transition
    distributions are sparse and cheap, and the exact prefix removes the
    largest contributions to the estimation error (the weight of ``m(k)``
    is ``c^k``).  For ``l < k <= n`` they are estimated by sampling — walk
    bundles here, the SR-SP bit-vector propagation in
    :class:`SpeedupExecutor`.  Corollary 1 bounds the resulting error by
    ``ε (c^(l+1) − c^n)`` with probability at least ``1 − δ``, roughly an
    order of magnitude better than the Sampling algorithm for ``l = 1`` and
    the paper's default ``c = 0.6``.
    """

    method = "two_phase"
    accepted_overrides = frozenset({"num_walks", "exact_prefix", "max_states"})
    use_speedup: ClassVar[bool] = False

    def _run(
        self, pairs: List[Tuple[Vertex, Vertex]], overrides: Dict[str, object]
    ) -> List[SimRankResult]:
        snapshot = self.snapshot
        iterations = snapshot.iterations
        prefix = int(overrides.get("exact_prefix", snapshot.exact_prefix))
        if not 0 <= prefix <= iterations:
            raise InvalidParameterError(
                f"exact prefix l must satisfy 0 <= l <= n, got l={prefix}, "
                f"n={iterations}"
            )
        max_states = int(overrides.get("max_states", DEFAULT_MAX_STATES))
        walks = self._effective_walks(overrides)
        distributions = self._exact_distributions(
            (endpoint for pair in pairs for endpoint in pair), prefix, max_states
        )
        if prefix < iterations:
            tails = self._tail_meetings(pairs, walks, overrides)
        else:
            tails = [None] * len(pairs)
        results = []
        for (u, v), tail in zip(pairs, tails):
            meeting = [
                meeting_probability(distributions[u][k], distributions[v][k])
                for k in range(prefix + 1)
            ]
            if tail is not None:
                meeting += tail[prefix + 1 :]
            results.append(
                self._result(
                    u,
                    v,
                    meeting,
                    {
                        "exact_prefix": prefix,
                        "num_walks": walks,
                        "use_speedup": self.use_speedup,
                        "shared_prefix": True,
                    },
                )
            )
        return results

    def _tail_meetings(
        self,
        pairs: Sequence[Tuple[Vertex, Vertex]],
        walks: int,
        overrides: Dict[str, object],
    ) -> List[List[float]]:
        """Full-length estimated ``m(0) … m(n)``; the caller keeps the tail."""
        return self._sampled_meetings(pairs, walks)


class SpeedupExecutor(TwoPhaseExecutor):
    """SR-SP (Section VI-D): shared prefix + per-endpoint-side propagation."""

    method = "speedup"
    accepted_overrides = frozenset(
        {
            "num_walks",
            "exact_prefix",
            "max_states",
            "filters",
            "filters_v",
            "shared_filters",
        }
    )
    use_speedup = True

    def _tail_meetings(
        self,
        pairs: Sequence[Tuple[Vertex, Vertex]],
        walks: int,
        overrides: Dict[str, object],
    ) -> List[List[float]]:
        snapshot = self.snapshot
        iterations = snapshot.iterations
        filters_u = overrides.get("filters")
        filters_v = overrides.get("filters_v")
        if filters_u is None or filters_v is None:
            # Each side defaults independently from the snapshot's cached
            # pair, so an explicit override of one side keeps the other.
            pair = snapshot.caches.filter_pair(walks)
            filters_u = pair[0] if filters_u is None else filters_u
            filters_v = pair[1] if filters_v is None else filters_v
        if overrides.get("shared_filters"):
            filters_v = filters_u
        processes = filters_u.num_processes
        if filters_v.num_processes != processes:
            raise InvalidParameterError(
                "filters and filters_v must encode the same number of "
                "sampling processes"
            )
        # One propagation per unique (endpoint, side): the u-side and v-side
        # tables come from independent filter sets, so a self-pair's two
        # bundles stay independent exactly as in the per-pair algorithm.
        tables: Dict[Tuple[Vertex, int], np.ndarray] = {}

        def table(endpoint: Vertex, side: int, filters: FilterVectors) -> np.ndarray:
            key = (endpoint, side)
            cached = tables.get(key)
            if cached is None:
                cached = propagate_packed_tables(endpoint, iterations, filters)
                tables[key] = cached
            return cached

        with self.obs_scope.stage("propagation"):
            return [
                packed_meeting_probabilities(
                    table(u, 0, filters_u), table(v, 1, filters_v), processes, u, v
                )
                for u, v in pairs
            ]


#: The executor registry, in the paper's method order.
EXECUTOR_TYPES: Dict[str, Type[MethodExecutor]] = {
    executor.method: executor
    for executor in (
        BaselineExecutor,
        SamplingExecutor,
        TwoPhaseExecutor,
        SpeedupExecutor,
    )
}


def executor_for(method: str) -> Type[MethodExecutor]:
    """The executor class registered for a paper method name."""
    try:
        return EXECUTOR_TYPES[method]
    except KeyError:
        raise InvalidParameterError(
            f"unknown method {method!r}; expected one of {METHODS}"
        ) from None


def make_executor(method: str, snapshot: EngineSnapshot) -> MethodExecutor:
    """Construct the snapshot-scoped executor for one method."""
    return executor_for(method)(snapshot)
