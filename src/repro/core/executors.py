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
  filter-vector propagation runs once per unique ``(endpoint, side)`` over
  the snapshot's cached filter vectors, as ``N`` position lanes that meet
  like walk bundles; the lanes persist across batches in the snapshot's
  table store.
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
from dataclasses import dataclass
from typing import (
    Callable,
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
    BundleNeed,
    BundleRepair,
    ShardedWalkSampler,
    meeting_probabilities_against_many,
    meeting_probabilities_from_matrices,
)
from repro.core.bundle_store import WalkBundleStore
from repro.core.simrank import (
    DEFAULT_EXACT_PREFIX,
    SimRankResult,
    meeting_probability,
    meeting_probabilities_from_distributions,
    simrank_from_meeting_probabilities,
)
from repro.core.speedup import FilterVectors, propagate_lanes
from repro.core.topk_index import DEFAULT_INDEX_BUDGET_BYTES, TopKIndexStore
from repro.obs import NULL_SCOPE
from repro.core.transition import single_source_transition_probabilities
from repro.core.walks import AlphaCache
from repro.graph.csr import CSRGraph, CSRGraphView
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError
from repro.utils.stats import DEFAULT_Z, batch_means_stderr, normal_interval

Vertex = Hashable

#: The two names a traced perfbench run wraps for its ``speedup.propagate``
#: and ``speedup.meet`` spans; a benchmark change should rename them.  The
#: SR-SP executor builds its lanes through ``propagate_packed_tables``, by
#: this module's name, so the wrap sees every build.  Nothing calls
#: ``packed_meeting_probabilities``: SR-SP lanes meet through
#: :func:`meeting_probabilities_against_many` and
#: :func:`meeting_probabilities_from_matrices`, like walk bundles.
propagate_packed_tables = propagate_lanes
packed_meeting_probabilities = meeting_probabilities_from_matrices

#: The algorithms of the paper, using its names (the executor registry keys).
METHODS = ("baseline", "sampling", "two_phase", "speedup")

#: Default state budget of the exact walk-extension procedure.
DEFAULT_MAX_STATES = 500_000

#: Leading spawn-key component of the filter-vector seed streams.  Walk world
#: keys use 3-component spawn keys ``(vertex, twin, shard)``; filter streams
#: use 4-component keys ``(_FILTER_STREAM, side, num_walks, rebuild)``, so
#: the two families can never collide.
_FILTER_STREAM = 2

#: Walk-count ceiling of adaptive-fidelity runs when the caller provides no
#: admission cap (``TenantConfig.max_num_walks``) of its own: the growth
#: loop stops here even if the CI half-width target was not met.
DEFAULT_ADAPTIVE_MAX_WALKS = 16384

#: Approximate bytes per stored transition-cache state (one vertex →
#: probability entry of a distribution dict): one dict slot (key + value
#: references + hash-table overhead) plus the boxed vertex and float,
#: measured empirically at ~96 B on CPython 3.11.  The dicts have no cheap
#: byte size, but their entry count tracks their footprint closely.
TRANSITION_STATE_BYTES = 96

#: Byte budget of each snapshot's :class:`TransitionCache`: 250,000 states.
TRANSITION_CACHE_BUDGET_BYTES = 250_000 * TRANSITION_STATE_BYTES

#: Byte budget of each snapshot's SR-SP lane store
#: (:attr:`EngineCaches.speedup_tables`).  A fixed constant, not an option:
#: one endpoint side's lanes are ``N × (n + 1)`` entries of the bundle
#: dtype, 12,000 B at ``N = 1000``, ``n = 5`` and int16 (graphs up to
#: 32,767 vertices), so the budget keeps ~5,500 endpoint sides — every side
#: of the 2,000-vertex benchmark graph — while a top-k scan's candidate side
#: cycles through the LRU without growing it.
SPEEDUP_TABLE_BUDGET_BYTES = 64 * 1024 * 1024


class TransitionCache(WalkBundleStore):
    """Cross-batch LRU for exact single-source transition distributions.

    Executors keep a batch-local distribution dict so one batch never
    recomputes an endpoint; this cache extends that sharing *across*
    batches (and across the read pool's executors) at one snapshot — the
    access pattern of the index's exact re-scoring phase, where successive
    pruned chunks keep hitting the same query endpoint.  Entries are the
    immutable lists :func:`single_source_transition_probabilities` returns,
    each weighing its stored states (plus one) at
    :data:`TRANSITION_STATE_BYTES` apiece.
    """

    def __init__(self, budget_bytes: int = TRANSITION_CACHE_BUDGET_BYTES) -> None:
        super().__init__(budget_bytes)

    def get(self, key: tuple) -> "List[Dict[Vertex, float]] | None":
        """The cached distributions of ``key``, or ``None`` (counted).

        Defined on this class, not inherited, so a tracer can wrap the
        transition cache's lookups alone.
        """
        return super().get(key)

    def put(self, key: tuple, distributions: "List[Dict[Vertex, float]]") -> None:
        states = sum(len(level) for level in distributions) + 1
        super().put(key, distributions, states * TRANSITION_STATE_BYTES)


class EngineCaches:
    """Snapshot-scoped shared state of one engine.

    Everything worth sharing across queries at one graph snapshot lives
    here: the pinned :class:`~repro.graph.csr.CSRGraph` (plus its
    :class:`~repro.graph.csr.CSRGraphView`, the dict-graph facade the exact
    algorithms read), the α cache of the exact algorithms, the SR-SP
    filter-vector pairs (one independently drawn u/v pair per
    ``num_walks``) and the SR-SP lanes propagated over them
    (:attr:`speedup_tables`, a byte-budgeted LRU).  The object is
    identified by ``key`` — the ``(id(graph), graph.version)`` snapshot
    identity — and is *replaced wholesale*, never mutated across versions:
    an engine builds a fresh instance when its graph moves on, while
    consumers that pinned the old instance (an epoch-pinned
    :class:`EngineSnapshot`) keep a self-consistent view of the caches
    exactly as they were.

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
        self.transitions = TransitionCache()
        # Keyed (vertex index, side, num_walks, steps, filter rebuild count),
        # so a filter redraw never serves lanes of the old draw.
        self.speedup_tables = WalkBundleStore(SPEEDUP_TABLE_BUDGET_BYTES)
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
        return self.filter_pair_generation(num_walks)[0]

    def filter_pair_generation(
        self, num_walks: int
    ) -> Tuple[Tuple[FilterVectors, FilterVectors], int]:
        """:meth:`filter_pair` plus the rebuild count it was drawn at, read
        atomically (the generation part of a :attr:`speedup_tables` key)."""
        walks = int(num_walks)
        with self._lock:
            pair = self._filter_pairs.get(walks)
            if pair is None:
                pair = self._build_pair_locked(walks)
            return pair, self._rebuilds.get(walks, 0)

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

    A bundle need is ``(vertex_index, twin, num_walks)``.  ``store`` is the
    :class:`~repro.core.bundle_store.VersionedStoreView` an engine snapshot
    pins to its ``bundle_store``, or a
    :class:`~repro.core.bundle_store.WalkBundleStore`; ``None`` samples
    every need afresh.  A store lookup either hits, misses, or hands back a
    bundle carried over a mutation with the rows that left a dirtied vertex;
    :meth:`resolve` resamples those rows together with the misses in one
    sweep of ``sampler`` and puts every new and repaired bundle back.  It
    returns direct references for the duration of the batch, so concurrent
    evictions cannot pull a bundle out from under a query that planned on it.
    """

    def __init__(
        self, sampler: ShardedWalkSampler, store: "object | None" = None
    ) -> None:
        self.sampler = sampler
        self.store = store

    def store_key(
        self, vertex_index: int, twin: bool, length: int, num_walks: int
    ) -> tuple:
        """Bundle-store key of one endpoint under the sampler's scheme."""
        return self.sampler.store_key(vertex_index, twin, length, num_walks)

    def resolve(
        self, csr: CSRGraph, length: int, needs: Iterable[BundleNeed]
    ) -> Dict[BundleNeed, np.ndarray]:
        """Bundles for every need (duplicates collapse; misses sampled,
        carried bundles repaired)."""
        store = self.store
        bundles: Dict[BundleNeed, np.ndarray] = {}
        missing: List[BundleNeed] = []
        repairs: Dict[BundleNeed, BundleRepair] = {}
        seen = set()
        for vertex_index, twin, walks in needs:
            need = (int(vertex_index), bool(twin), int(walks))
            if need in seen:
                continue
            seen.add(need)
            found = None
            if store is not None:
                found = store.lookup(self.store_key(need[0], need[1], length, need[2]))
            if found is None:
                missing.append(need)
            elif found[1] is None:
                bundles[need] = found[0]
            else:
                repairs[need] = found
        if missing or repairs:
            sampled = self.sampler.sample_bundles_mixed(csr, missing, length, repairs)
            for need, bundle in sampled.items():
                if store is not None:
                    store.put(self.store_key(need[0], need[1], length, need[2]), bundle)
                bundles[need] = bundle
        return bundles


@dataclass(frozen=True)
class EngineSnapshot:
    """Everything one query batch needs, frozen at one graph version.

    Instances are immutable and shared: any number of read workers may
    answer from the same snapshot concurrently.  ``caches`` is the engine's
    snapshot-scoped state (α cache, SR-SP filters, pinned CSR view) —
    replaced wholesale when the graph moves on, so a pinned snapshot keeps a
    consistent view of the retired version.  ``walks`` resolves walk-bundle
    needs through the engine's keyed sampler and, when the engine has a
    ``bundle_store``, a :class:`~repro.core.bundle_store.VersionedStoreView`
    of it pinned to this graph version (``walks.store``).  ``epoch_id`` is 0
    until an :class:`~repro.service.epoch.EpochManager` publishes the
    snapshot.
    """

    epoch_id: int
    graph_version: int
    csr: CSRGraph
    caches: EngineCaches
    decay: float
    iterations: int
    num_walks: int
    exact_prefix: int = DEFAULT_EXACT_PREFIX
    walks: Optional[WalkSource] = None


class MethodExecutor:
    """One paper method, scoped to one :class:`EngineSnapshot`.

    Subclasses implement :meth:`_run` over a validated pair list; the public
    :meth:`run_batch` adds override validation and endpoint checks.  An
    executor instance is cheap and batch-scoped: shared prefix work
    (transition distributions, SR-SP lanes) accumulates on the
    instance, so reusing one executor across the chunks of a streamed query
    keeps sharing it, while a fresh executor starts clean.

    ``obs_scope`` is the executor's observability hook: a
    :class:`repro.obs.StageScope` (or the no-op :data:`repro.obs.NULL_SCOPE`
    default) that times the method's internal stages — ``shared_prefix``
    (batched exact transition distributions), ``walk_sampling`` (bundle
    resolution), ``meeting_tails`` (Monte-Carlo meeting estimation) and
    ``propagation`` (SR-SP lanes) — into latency histograms and, when
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
                    distributions = caches.transitions.get(key)
                    if distributions is None:
                        distributions = single_source_transition_probabilities(
                            caches.view,
                            endpoint,
                            steps,
                            max_states=max_states,
                            alpha_cache=caches.alpha_cache,
                        )
                        caches.transitions.put(key, distributions)
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
        """Monte-Carlo ``m(0) … m(n)`` per pair from shared walk bundles."""
        index_pairs, bundles = self._resolve_bundles(pairs, walks)
        return self._lane_meetings(
            index_pairs,
            lambda u: bundles[(u, False, walks)],
            lambda u, v: bundles[(v, u == v, walks)],
        )

    def _lane_meetings(
        self,
        index_pairs: Sequence[Tuple[int, int]],
        lanes_u: Callable[[int], np.ndarray],
        lanes_v: Callable[[int, int], np.ndarray],
    ) -> List[List[float]]:
        """``m(0) … m(n)`` per pair from its two sides' walk lanes.

        ``lanes_u(u)`` and ``lanes_v(u, v)`` are a pair's ``(N, n + 1)``
        lane matrices, by vertex index: walk bundles, or SR-SP process
        lanes.  Pairs sharing their first endpoint (the shape top-k queries
        produce) are compared against the query lanes in one broadcasted
        pass; the floats are identical to the per-pair computation either
        way.
        """
        iterations = self.snapshot.iterations
        meetings: List[Optional[List[float]]] = [None] * len(index_pairs)
        with self.obs_scope.stage("meeting_tails"):
            grouped: Dict[int, List[int]] = {}
            for position, (u_index, v_index) in enumerate(index_pairs):
                if u_index == v_index:
                    meetings[position] = meeting_probabilities_from_matrices(
                        lanes_u(u_index), lanes_v(u_index, v_index), iterations, True
                    )
                else:
                    grouped.setdefault(u_index, []).append(position)
            for u_index, positions in grouped.items():
                if len(positions) == 1:
                    position = positions[0]
                    meetings[position] = meeting_probabilities_from_matrices(
                        lanes_u(u_index),
                        lanes_v(u_index, index_pairs[position][1]),
                        iterations,
                        False,
                    )
                    continue
                tails = meeting_probabilities_against_many(
                    lanes_u(u_index),
                    [lanes_v(u_index, index_pairs[position][1]) for position in positions],
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
    bundles here, the SR-SP filter-vector propagation in
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
        shared = bool(overrides.get("shared_filters"))
        # Only the snapshot's own filter pair has cacheable lanes; explicit
        # filter sets (or one set for both sides) propagate uncached.
        store: Optional[WalkBundleStore] = None
        rebuild = 0
        if filters_u is None or filters_v is None:
            # Each side defaults independently from the snapshot's cached
            # pair, so an explicit override of one side keeps the other.
            pair, rebuild = snapshot.caches.filter_pair_generation(walks)
            if filters_u is None and filters_v is None and not shared:
                store = snapshot.caches.speedup_tables
            filters_u = pair[0] if filters_u is None else filters_u
            filters_v = pair[1] if filters_v is None else filters_v
        if shared:
            filters_v = filters_u
        if filters_v.num_processes != filters_u.num_processes:
            raise InvalidParameterError(
                "filters and filters_v must encode the same number of "
                "sampling processes"
            )
        # One propagation per unique (endpoint, side): the u-side and v-side
        # lanes come from independent filter sets, so a self-pair's two
        # sides stay independent exactly as in the per-pair algorithm.
        # Misses build outside the store's lock; concurrent builders of one
        # key produce identical lanes, so the last put is as good as any.
        csr = snapshot.csr
        index_pairs = [(csr.index_of(u), csr.index_of(v)) for u, v in pairs]
        lanes: Dict[Tuple[int, int], np.ndarray] = {}
        with self.obs_scope.stage("propagation"):
            for (u, v), (u_index, v_index) in zip(pairs, index_pairs):
                for endpoint, index, side, filters in (
                    (u, u_index, 0, filters_u),
                    (v, v_index, 1, filters_v),
                ):
                    if (index, side) in lanes:
                        continue
                    key = (index, side, walks, iterations, rebuild)
                    built = None if store is None else store.get(key)
                    if built is None:
                        built = propagate_packed_tables(endpoint, iterations, filters)
                        if store is not None:
                            store.put(key, built)
                    lanes[(index, side)] = built
        return self._lane_meetings(
            index_pairs,
            lambda u: lanes[(u, 0)],
            lambda u, v: lanes[(v, 1)],
        )


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
