"""Unified front end for the SimRank algorithms.

:class:`SimRankEngine` binds an uncertain graph to a decay factor, an
iteration count and per-method configuration, and exposes every algorithm of
the paper behind one ``similarity(u, v, method=...)`` call.  Since the
executor refactor it is a *thin router*: each call freezes the engine's
current graph state into an :class:`~repro.core.executors.EngineSnapshot`
(pinned CSR + snapshot-scoped :class:`~repro.core.executors.EngineCaches`)
and dispatches to the snapshot-scoped
:class:`~repro.core.executors.MethodExecutor` registered for the method —
the same executors the serving layer runs against epoch-pinned snapshots.
The engine owns one keyed
:class:`~repro.core.batch_walks.ShardedWalkSampler`
(:attr:`SimRankEngine.sampler`), and :meth:`SimRankEngine.snapshot` is the
only snapshot builder: a service tenant publishes its engine's snapshots as
epochs, so an engine and a service configured with the same ``seed`` /
``shard_size`` answer bit-identically at equal graph states.

Multi-pair calls (:meth:`SimRankEngine.similarity_many`) share batch work
per *unique endpoint*: walk bundles for the sampled stages, single-source
transition distributions for the exact stages, and SR-SP propagation tables
per endpoint side.  All randomness is keyed (walk bundles from ``(seed,
vertex, twin, shard)`` world keys, SR-SP filters from per-walk-count seed
streams), so results are independent of query order and batching.

Both caches (filters, α) are keyed on the graph's mutation version, so
mutating or replacing :attr:`graph` transparently rebuilds them.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.baseline import baseline_simrank_all_pairs
from repro.core.batch_walks import DEFAULT_SHARD_SIZE, ShardedWalkSampler
from repro.core.bundle_store import VersionedStoreView
from repro.core.executors import (
    METHODS,
    EngineCaches,
    EngineSnapshot,
    WalkSource,
    executor_for,
)
from repro.core.sampling import DEFAULT_NUM_WALKS
from repro.core.topk_index import DEFAULT_INDEX_BUDGET_BYTES
from repro.core.simrank import (
    DEFAULT_DECAY,
    DEFAULT_EXACT_PREFIX,
    DEFAULT_ITERATIONS,
    SimRankResult,
    validate_decay,
    validate_iterations,
)
from repro.core.speedup import FilterVectors
from repro.core.walks import AlphaCache
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import RandomState, ensure_rng

Vertex = Hashable

__all__ = [
    "METHODS",
    "EngineCaches",
    "SimRankEngine",
    "compute_simrank",
]


class SimRankEngine:
    """Compute uncertain-graph SimRank similarities with any of the paper's algorithms.

    Parameters
    ----------
    graph:
        The uncertain graph to query.
    decay:
        Decay factor ``c`` in ``(0, 1)``; default 0.6 as in the paper.
    iterations:
        Iteration count ``n``; default 5 (the paper's convergence point).
    num_walks:
        Sample size ``N`` for the sampling-based methods; default 1000.
    exact_prefix:
        The ``l`` of the two-phase methods; default 1.
    seed:
        Seed (or generator) driving all randomness of the engine.  An integer
        seed makes every answer a pure function of ``(graph state, seed,
        shard_size)`` — the property the serving layer's bit-identity rests
        on; a generator (or ``None``) supplies the integer seed once, at
        construction.
    bundle_store:
        Optional :class:`repro.core.bundle_store.WalkBundleStore` shared
        across batched sampling queries.  With a store, walk bundles persist
        across :meth:`similarity_many` calls under the store's LRU byte
        budget and are invalidated when the graph mutates; without one, each
        batched call samples its bundles afresh.
    shard_size:
        Walks per shard of the keyed sampling scheme.  Part of the RNG scheme
        (it decides which world keys exist): an engine and a
        :class:`~repro.core.batch_walks.ShardedWalkSampler` agree bit-for-bit
        exactly when their ``(seed, shard_size)`` match.

    Examples
    --------
    >>> from repro.graph.uncertain_graph import example_graph
    >>> engine = SimRankEngine(example_graph(), seed=7)
    >>> result = engine.similarity("v1", "v2", method="two_phase")
    >>> 0.0 <= result.score <= 1.0
    True
    """

    def __init__(
        self,
        graph: UncertainGraph,
        decay: float = DEFAULT_DECAY,
        iterations: int = DEFAULT_ITERATIONS,
        num_walks: int = DEFAULT_NUM_WALKS,
        exact_prefix: int = DEFAULT_EXACT_PREFIX,
        seed: RandomState = None,
        bundle_store: "object | None" = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        topk_index_budget_bytes: "int | None" = DEFAULT_INDEX_BUDGET_BYTES,
    ) -> None:
        self.graph = graph
        self.bundle_store = bundle_store
        self.topk_index_budget_bytes = topk_index_budget_bytes
        self.decay = validate_decay(decay)
        self.iterations = validate_iterations(iterations)
        if num_walks < 1:
            raise InvalidParameterError(f"num_walks must be >= 1, got {num_walks}")
        if not 0 <= exact_prefix <= iterations:
            raise InvalidParameterError(
                f"exact_prefix must satisfy 0 <= l <= n, got {exact_prefix}"
            )
        if shard_size < 1:
            raise InvalidParameterError(f"shard_size must be >= 1, got {shard_size}")
        self.num_walks = num_walks
        self.exact_prefix = exact_prefix
        self.shard_size = int(shard_size)
        if isinstance(seed, (int, np.integer)):
            self._seed = int(seed)
        else:
            # No (or a generator) seed: derive the keyed-scheme base seed
            # from the generator so the engine stays self-consistent.
            self._seed = int(ensure_rng(seed).integers(2**63))
        #: The engine's one keyed walk sampler; every snapshot resolves its
        #: walk bundles through it.
        self.sampler = ShardedWalkSampler(self._seed, self.shard_size)
        self._caches = EngineCaches(
            graph,
            self._graph_key(),
            self._seed,
            topk_index_budget_bytes=topk_index_budget_bytes,
        )

    # -- shared state --------------------------------------------------------

    def _graph_key(self) -> Tuple[object, ...]:
        """Identity of the current graph snapshot (object + mutation version)."""
        return (id(self.graph), self.graph.version)

    @property
    def seed(self) -> int:
        """Base seed of the engine's keyed sampling / filter scheme."""
        return self._seed

    @property
    def caches(self) -> EngineCaches:
        """The snapshot-scoped cache bundle, replaced when the graph moves on.

        Assigning a new graph or mutating the current one retires the whole
        object at once — consumers that pinned the previous instance (epoch
        snapshots) keep a consistent view of the retired version.
        """
        if self._caches.key != self._graph_key():
            self._caches = EngineCaches(
                self.graph,
                self._graph_key(),
                self._seed,
                topk_index_budget_bytes=self.topk_index_budget_bytes,
            )
        return self._caches

    @property
    def alpha_cache(self) -> AlphaCache:
        """The α cache of the exact algorithms, refreshed if the graph changed."""
        return self.caches.alpha_cache

    @property
    def filters(self) -> FilterVectors:
        """Offline-built filter vectors for the u-side SR-SP bundle.

        Cached per ``(graph, graph.version, num_walks)``: assigning a new
        graph, mutating the current one, or changing ``num_walks`` all
        invalidate the cache instead of silently serving stale vectors.
        """
        return self.caches.filter_pair(self.num_walks)[0]

    @property
    def filters_v(self) -> FilterVectors:
        """Offline-built filter vectors for the v-side SR-SP bundle.

        Kept independent of :attr:`filters` so the two endpoint walk bundles
        stay statistically independent (see
        :meth:`~repro.core.executors.EngineCaches.filter_pair`).
        """
        return self.caches.filter_pair(self.num_walks)[1]

    def rebuild_filters(self) -> FilterVectors:
        """Redraw both SR-SP filter sets (a fresh offline sampling pass)."""
        return self.caches.rebuild_filter_pair(self.num_walks)[0]

    def snapshot(self) -> EngineSnapshot:
        """Freeze the engine's current graph state into an executor snapshot.

        The returned :class:`~repro.core.executors.EngineSnapshot` carries
        the pinned CSR, the snapshot-scoped caches, the engine parameters,
        and a :class:`~repro.core.executors.WalkSource` over :attr:`sampler`.
        With a :attr:`bundle_store`, the store is re-bound to this graph
        version (dropping bundles of an older one) and the walk source
        resolves through a
        :class:`~repro.core.bundle_store.VersionedStoreView` pinned to it, so
        a snapshot that outlives a mutation never reads or writes bundles of
        the newer graph.  ``epoch_id`` is 0 until an
        :class:`~repro.service.epoch.EpochManager` publishes the snapshot —
        a service tenant publishes exactly these snapshots.
        """
        caches = self.caches
        store = None
        if self.bundle_store is not None:
            token = self._graph_key()
            self.bundle_store.sync_version(token)
            store = VersionedStoreView(self.bundle_store, token)
        return EngineSnapshot(
            epoch_id=0,
            graph_version=self.graph.version,
            csr=caches.csr,
            caches=caches,
            decay=self.decay,
            iterations=self.iterations,
            num_walks=self.num_walks,
            exact_prefix=self.exact_prefix,
            walks=WalkSource(self.sampler, store),
        )

    # -- queries --------------------------------------------------------------

    def similarity(
        self,
        u: Vertex,
        v: Vertex,
        method: str = "two_phase",
        **overrides: object,
    ) -> SimRankResult:
        """SimRank similarity of one vertex pair with the chosen algorithm.

        ``method`` is one of ``"baseline"``, ``"sampling"``, ``"two_phase"``
        (SR-TS) and ``"speedup"`` (SR-SP).  Keyword overrides are validated
        against the method's executor — each executor declares exactly the
        overrides that are meaningful for it (e.g. ``num_walks=`` for the
        sampled methods, ``exact_prefix=`` for the two-phase ones,
        ``max_states=`` for every exact stage) and rejects the rest with a
        clear error.
        """
        return self.similarity_many([(u, v)], method=method, **overrides)[0]

    def similarity_many(
        self,
        pairs: Iterable[Tuple[Vertex, Vertex]],
        method: str = "two_phase",
        **overrides: object,
    ) -> List[SimRankResult]:
        """SimRank similarities for many pairs, sharing batch work.

        Every method shares its expensive stage per *unique endpoint* of the
        batch: walk bundles (``sampling`` and the SR-TS tail), single-source
        transition distributions (every exact stage), and SR-SP propagation
        tables per endpoint side.  A multi-pair query over ``p`` pairs
        touching ``q`` unique vertices costs ``q`` expensive-stage runs
        instead of ``2p``.  Each pair's estimate stays unbiased (sharing only
        correlates estimates across pairs, as the paper's shared offline
        filters do), and because the sampled stages are keyed, batching never
        changes any individual answer.
        """
        executor = self.batch_executor(method)
        return executor.run_batch(list(pairs), dict(overrides))

    def batch_executor(self, method: str = "two_phase"):
        """A method executor bound to a fresh snapshot of this engine.

        Useful for callers that score several batches against one pinned
        snapshot and want shared prefix work to accumulate across them —
        the access pattern of the index-pruned top-k helpers.
        """
        return executor_for(method)(self.snapshot())

    def similarity_matrix(
        self, order: Sequence[Vertex] | None = None, **overrides: object
    ) -> np.ndarray:
        """Exact all-pairs SimRank matrix (Baseline); small graphs only."""
        return baseline_simrank_all_pairs(
            self.graph,
            decay=self.decay,
            iterations=self.iterations,
            order=order,
            **overrides,
        )


def compute_simrank(
    graph: UncertainGraph,
    u: Vertex,
    v: Vertex,
    method: str = "two_phase",
    decay: float = DEFAULT_DECAY,
    iterations: int = DEFAULT_ITERATIONS,
    num_walks: int = DEFAULT_NUM_WALKS,
    exact_prefix: int = DEFAULT_EXACT_PREFIX,
    seed: RandomState = None,
    **overrides: object,
) -> SimRankResult:
    """One-shot convenience wrapper around :class:`SimRankEngine`.

    The single-pair entry point of every method — e.g. the all-sampled SR-SP
    estimator of Fig. 5 is ``compute_simrank(..., method="speedup",
    exact_prefix=0)``.  Useful for scripts and examples; applications
    issuing many queries should create a single engine so that caches and
    filter vectors are reused.
    """
    engine = SimRankEngine(
        graph,
        decay=decay,
        iterations=iterations,
        num_walks=num_walks,
        exact_prefix=exact_prefix,
        seed=seed,
    )
    return engine.similarity(u, v, method=method, **overrides)
