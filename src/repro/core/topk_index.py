"""Epoch-scoped walk-fingerprint index for pruned top-k queries.

Both case studies of the paper are top-k queries, yet the plain helpers in
:mod:`repro.core.topk` score *every* candidate through the full estimator.
This module precomputes, per pinned snapshot, a compact per-vertex summary
that yields a provable upper bound ``ub(u, v) >= sim(u, v)`` for each
method's estimator, so a top-k query can

1. compute bounds for all candidates vectorized, sort them descending, and
2. exact-rescore candidates in bound order through the regular
   :class:`~repro.core.executors.MethodExecutor`, stopping as soon as the
   next bound falls strictly below the current k-th best score.

Because pruning only ever discards candidates whose *bound* is strictly
below the k-th best *exact* score — and ties are rescored — the pruned
ranking is bit-identical to the full scan under the
:func:`~repro.core.topk.rank_top_k` tie-breaking rule.

Walk sinks
----------

A walk stops at a vertex with no instantiated out-arc, so for ``u != v``
where ``u`` or ``v`` has no out-arc of positive probability (a *sink*) every
``m(k)`` is 0 and the score is exactly ``0.0`` under all four methods.  A
bound cannot prune these ties (every bound carries :data:`BOUND_SLACK`),
but the tie-breaking rule can: ties at ``0.0`` rank by candidate position,
so of the certified-zero candidates only the ``k`` earliest can appear in
the answer.  Those ``k`` are rescored like any other candidate (their
results stay bit-identical); the rest are neither bounded nor rescored.

Bound derivations
-----------------

Write ``m(k)`` for the k-step meeting probability of a pair, ``n`` for the
iteration count, ``c`` for the decay and ``w_k`` for the SimRank weight of
step ``k`` (``(1-c)·c^k`` for ``k < n``, ``c^n`` for ``k = n``; note
``Σ_{k=1}^{n} w_k = c`` and ``m(0) = 0`` for distinct vertices).

* **Survival bound** (exact estimators).  A walk that meets at step
  ``k >= 1`` must in particular have survived its first step, so
  ``m(k) <= s(u)·s(v)`` with ``s(u) = 1 - Π_j (1 - p_j)`` over the
  out-arcs of ``u``.  No per-step recurrence is attempted: the paper's
  walks are non-Markovian (a revisited vertex keeps its instantiated
  arcs), which breaks step-wise survival products.
* **One-step bound** (exact estimators, single-query form).  The exact
  one-step distribution is ``P1(u, w) = α(u, {w}, 1)`` (Lemma 1), so
  ``m(1) = Σ_w P1(u, w)·P1(v, w)`` can be computed exactly and vectorized
  against a whole candidate column, replacing the loose ``s(u)·s(v)``
  factor for the heavy ``k = 1`` term.
* **Lane bound** (sampled estimators).  The sampled estimator counts,
  per step, walk slots where both endpoint bundles are alive on the same
  vertex.  The index keeps every vertex's bundle as *walk lanes*: its
  step-major columns ``lanes[u, k - 1, i]`` (the vertex walk ``i`` of ``u``
  stands on at step ``k``, :data:`~repro.core.batch_walks.NO_VERTEX` once
  it is dead).  The build resolves every vertex through the snapshot's
  walk source like a query batch, so the bundles it samples land in the
  bundle store for the rescore to find, and a rebuild after a mutation
  repairs carried bundles instead of sampling them again.  The matched-lane
  count ``Σ_i (q_i == c_i) & (q_i != NO_VERTEX)`` is therefore exactly the
  estimator's hit count, computed from the *same* keyed bundles, and the
  lane bound is the sampled score itself plus :data:`BOUND_SLACK`.
* **Speedup tail**.  SR-SP's tail uses filter-vector propagation, not the
  walk bundles, so only the trivial per-step bound ``m̂(k) <= 1`` applies:
  the tail is bounded by ``Σ_{k=l+1}^{n} w_k = c^{l+1}``.  This makes the
  speedup bound weak by construction; pruning still preserves exactness.

All float-valued bound components carry a small additive slack so that
summation-order differences against the estimator can never flip a
``ub >= score`` relation into a false prune.

The artifacts (sink mask, survival masses, one-step table, walk lanes) live
in the snapshot's :class:`TopKIndexStore`, a
:class:`~repro.core.bundle_store.WalkBundleStore` that builds an artifact on
a miss.  Unlike every other store use, the build runs under the store's
lock, so concurrent readers of one snapshot share a single build.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch_walks import NO_VERTEX, bundle_dtype
from repro.core.bundle_store import WalkBundleStore
from repro.obs import NULL_SCOPE
from repro.utils.errors import InvalidParameterError

Vertex = Hashable

#: Default byte budget for one snapshot's index artifacts (lanes dominate).
DEFAULT_INDEX_BUDGET_BYTES = 128 * 1024 * 1024

#: Vertices resolved per walk-source call while building the lanes: bounds
#: the transient stack of raw bundles to one chunk.
LANE_CHUNK_VERTICES = 256

#: Float budget of one block of the one-step table's leave-one-out DP.
ONE_STEP_BLOCK_FLOATS = 1 << 18

#: Additive slack on float bound components; protects strict-inequality
#: pruning against summation-order rounding, costing only near-tie rescores.
BOUND_SLACK = 1e-9

#: Stands in for a dead query slot: neither a vertex index nor NO_VERTEX,
#: so it matches no candidate lane.
_DEAD_QUERY = NO_VERTEX - 1

_LANED_METHODS = ("sampling", "two_phase")


def step_weights(decay: float, iterations: int) -> np.ndarray:
    """SimRank weight of each step ``k = 1 … n`` (position ``k - 1``).

    ``score = Σ_{k=0}^{n-1} (1-c)·c^k·m(k) + c^n·m(n)`` with ``m(0) = 0``
    for distinct pairs, so only steps ``1 … n`` carry weight.
    """
    weights = [(1.0 - decay) * decay**k for k in range(1, iterations)]
    weights.append(decay**iterations)
    return np.asarray(weights, dtype=float)


def survival_masses(csr) -> np.ndarray:
    """Per-vertex probability of surviving the first step, with slack.

    ``s(u) = 1 - Π_j (1 - p_j)`` over the out-arcs of ``u``; computed as a
    cumulative-sum difference over ``log1p(-p)`` so empty rows cost nothing
    (``np.add.reduceat`` misbehaves on empty segments).  Rows holding a
    certain arc (``p >= 1``) are forced to 1 before the log would diverge.
    """
    probs = np.clip(np.asarray(csr.probs, dtype=float), 0.0, 1.0)
    certain = probs >= 1.0
    safe = np.where(certain, 0.0, probs)
    log_miss = np.log1p(-safe)
    cumulative = np.concatenate(([0.0], np.cumsum(log_miss)))
    row_log = cumulative[csr.indptr[1:]] - cumulative[csr.indptr[:-1]]
    certain_cumulative = np.concatenate(([0], np.cumsum(certain.astype(np.int64))))
    has_certain = (certain_cumulative[csr.indptr[1:]] - certain_cumulative[csr.indptr[:-1]]) > 0
    survival = 1.0 - np.exp(row_log)
    survival[has_certain] = 1.0
    return np.minimum(survival + BOUND_SLACK, 1.0)


def sink_mask(csr) -> np.ndarray:
    """Per-vertex flag: the CSR row holds no arc with ``p > 0``.

    Read from the structure, not from :func:`survival_masses`: survival
    adds slack and underflows for tiny ``p``, while the keyed kernel still
    takes such an arc (its threshold ``ceil(p·2^53)`` is at least 1).
    """
    positive = np.concatenate(
        ([0], np.cumsum(np.asarray(csr.probs) > 0.0, dtype=np.int64))
    )
    return positive[csr.indptr[1:]] == positive[csr.indptr[:-1]]


def one_step_arc_probabilities(csr, alpha_cache) -> np.ndarray:
    """Exact one-step transition probability of every arc, in CSR arc order.

    ``P1(u, w) = α(u, {w}, 1) = p_w · Σ_x r_w(x) / (x + 1)``, where ``r_w``
    is the Poisson-binomial distribution of how many of ``u``'s *other*
    out-arcs exist (Eq. 11 with ``O = {w}``, ``c = 1``) — the value the
    exact walk extension assigns, so bounds built from it dominate the
    exact ``m(1)`` term.  Rows of equal out-degree ``d`` share one
    vectorized leave-one-out DP (each arc zeroes its own probability, an
    exact identity step) in blocks of at most :data:`ONE_STEP_BLOCK_FLOATS`
    floats.  It runs in :func:`~repro.core.walks.alpha`'s operation order,
    so every value equals ``alpha``'s bit for bit and fills ``alpha_cache``
    for the two-phase exact prefix.
    """
    probs = np.asarray(csr.probs, dtype=float)
    indptr = np.asarray(csr.indptr, dtype=np.int64)
    degrees = np.diff(indptr)
    values = np.zeros(len(probs), dtype=float)
    for degree in np.unique(degrees[degrees > 0]).tolist():
        row_starts = indptr[:-1][degrees == degree]
        offsets = np.arange(degree)
        # One item per arc of the group: its row's start and its offset.
        item_starts = np.repeat(row_starts, degree)
        item_offsets = np.tile(offsets, len(row_starts))
        inverse = 1.0 / (offsets + 1.0)  # inv(x + 1) for x = 0 … d - 1
        per_block = max(1, ONE_STEP_BLOCK_FLOATS // degree)
        for block in range(0, len(item_starts), per_block):
            starts = item_starts[block : block + per_block]
            left_out = item_offsets[block : block + per_block]
            others = probs[starts[:, None] + offsets]
            others[np.arange(len(starts)), left_out] = 0.0
            # r(x) over the d - 1 other arcs; the zeroed arc keeps the
            # count below d, so d columns hold the whole distribution.
            distribution = np.zeros((len(starts), degree), dtype=float)
            distribution[:, 0] = 1.0
            for column in range(degree):
                p = others[:, column : column + 1]
                distribution[:, 1:] = (
                    distribution[:, :-1] * p + distribution[:, 1:] * (1.0 - p)
                )
                distribution[:, :1] *= 1.0 - p
            expectation = np.zeros(len(starts), dtype=float)
            for extra in range(degree):  # alpha's order; a dot would reorder
                expectation += distribution[:, extra] * inverse[extra]
            arcs = starts + left_out
            values[arcs] = probs[arcs] * expectation
    names = csr.vertices
    table = zip(csr.arc_sources().tolist(), csr.indices.tolist(), values.tolist())
    alpha_cache.fill(((names[u], frozenset((names[w],)), 1), p) for u, w, p in table)
    return values


class WalkLanes:
    """Every vertex's walk bundle for one ``(num_walks, length)``, step-major.

    ``lanes[u, k - 1, i]`` is the vertex walk ``i`` of endpoint ``u`` stands
    on at step ``k`` (:data:`NO_VERTEX` once dead) — the columns of the
    bundle the estimator reads, in the bundles' own dtype.
    """

    __slots__ = ("lanes", "num_walks")

    def __init__(self, lanes: np.ndarray, num_walks: int):
        self.lanes = lanes
        self.num_walks = num_walks

    @property
    def nbytes(self) -> int:
        return int(self.lanes.nbytes)

    def matched_counts(self, query_index: int, candidate_indices: np.ndarray) -> np.ndarray:
        """``counts[i, k-1]``: step-k matched walks of (query, candidate i)."""
        query = self.lanes[query_index]
        return self._counts(query[np.newaxis], self.lanes[candidate_indices])

    def matched_counts_pairs(
        self, u_indices: np.ndarray, v_indices: np.ndarray
    ) -> np.ndarray:
        """Per-pair matched-walk counts; rows align with the pair arrays."""
        return self._counts(self.lanes[u_indices], self.lanes[v_indices])

    @staticmethod
    def _counts(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``Σ_i (left_i == right_i) & (left_i != NO_VERTEX)`` per step."""
        probe = np.where(left == NO_VERTEX, _DEAD_QUERY, left)
        return np.count_nonzero(probe == right, axis=2)


def build_lanes(csr, walk_source, num_walks: int, length: int) -> WalkLanes:
    """Every vertex's walk lanes, resolved through the walk source.

    Each vertex chunk resolves like a query batch: store hits are read,
    carried bundles repaired, misses sampled and put back — so the rescore
    that follows finds the bundles in the store.
    """
    vertex_count = csr.num_vertices
    lanes = np.empty(
        (vertex_count, length, num_walks), dtype=bundle_dtype(vertex_count)
    )
    for start in range(0, vertex_count, LANE_CHUNK_VERTICES):
        stop = min(start + LANE_CHUNK_VERTICES, vertex_count)
        needs = [(position, False, num_walks) for position in range(start, stop)]
        bundles = walk_source.resolve(csr, length, needs)
        for position, need in enumerate(needs, start):
            lanes[position] = bundles[need][:, 1:].T
    return WalkLanes(lanes, num_walks)


class TopKIndexStore(WalkBundleStore):
    """The byte-budgeted LRU of one snapshot's index artifacts.

    A :class:`~repro.core.bundle_store.WalkBundleStore` whose artifacts are
    built on a miss: an artifact larger than the whole budget is refused
    (callers then fall back to the scan).  The store lives on
    :class:`~repro.core.executors.EngineCaches`, so epoch retirement drops
    it wholesale — no cross-epoch invalidation protocol.
    """

    def __init__(self, budget_bytes: Optional[int] = DEFAULT_INDEX_BUDGET_BYTES):
        super().__init__(budget_bytes)

    def get_or_build(
        self, key: tuple, build: Callable[[], object]
    ) -> Tuple[Optional[object], float]:
        """Return ``(artifact, build_ms)``; ``(None, ms)`` if over budget.

        Unlike every other store use, the build runs under the store lock:
        concurrent readers of the same snapshot then share one build instead
        of racing duplicates.
        """
        with self._lock:
            artifact = self.get(key)
            if artifact is not None:
                return artifact, 0.0
            started = time.perf_counter()
            artifact = build()
            build_ms = (time.perf_counter() - started) * 1000.0
            self.put(key, artifact)
            return (artifact if self.peek(key) else None), build_ms


class TopKIndex:
    """Per-snapshot bound oracle for one ``(method, num_walks, prefix)``.

    A thin combiner over shared artifacts (sink mask, survival masses,
    one-step arc probabilities, walk lanes); construction is cheap, the
    artifacts are cached in the snapshot's :class:`TopKIndexStore`.
    """

    def __init__(
        self,
        method: str,
        csr,
        decay: float,
        iterations: int,
        exact_prefix: int,
        survival: np.ndarray,
        sinks: np.ndarray,
        lanes: Optional[WalkLanes] = None,
        alpha_probs: Optional[np.ndarray] = None,
        build_ms: float = 0.0,
        cache_hit: bool = True,
    ):
        self.method = method
        self.csr = csr
        self.decay = decay
        self.iterations = iterations
        self.exact_prefix = exact_prefix
        self.survival = survival
        self.sinks = sinks
        self.lanes = lanes
        self.alpha_probs = alpha_probs
        self.build_ms = build_ms
        self.cache_hit = cache_hit

        weights = step_weights(decay, iterations)
        if method == "sampling":
            exact_last = 0
        elif method == "baseline":
            exact_last = iterations
        else:
            exact_last = min(exact_prefix, iterations)
        self._exact_one_weight = weights[0] if exact_last >= 1 else 0.0
        self._exact_rest_weight = float(weights[1:exact_last].sum())
        if method in _LANED_METHODS:
            self._lane_slice = slice(exact_last, iterations)
            self._lane_weights = weights[self._lane_slice]
            self._tail_constant = 0.0
            if self._lane_weights.size and lanes is None:
                raise InvalidParameterError(
                    f"method {method!r} needs walk lanes for steps past {exact_last}"
                )
        else:
            self._lane_slice = slice(0, 0)
            self._lane_weights = weights[0:0]
            self._tail_constant = (
                float(decay ** (exact_last + 1)) if exact_last < iterations else 0.0
            )

    def certified_zero(self, u_indices, v_indices: np.ndarray) -> np.ndarray:
        """Pairs whose score is exactly ``0.0``: distinct, one end a sink.

        Self pairs are never certified — ``m(0) = 1`` for them.
        """
        return (u_indices != v_indices) & (
            self.sinks[u_indices] | self.sinks[v_indices]
        )

    def _one_step_row(self, query_index: int) -> np.ndarray:
        """Exact ``m(1)(query, v)`` for every vertex ``v``, one O(arcs) pass."""
        csr = self.csr
        dense = np.zeros(csr.num_vertices, dtype=float)
        start, stop = int(csr.indptr[query_index]), int(csr.indptr[query_index + 1])
        dense[csr.indices[start:stop]] = self.alpha_probs[start:stop]
        contributions = self.alpha_probs * dense[csr.indices]
        cumulative = np.concatenate(([0.0], np.cumsum(contributions)))
        return cumulative[csr.indptr[1:]] - cumulative[csr.indptr[:-1]]

    def bounds_for_vertex(
        self, query_index: int, candidate_indices: np.ndarray
    ) -> np.ndarray:
        """Upper bounds for ``(query, candidate)`` pairs, candidate-aligned.

        Self pairs get ``+inf`` — their estimator uses twin bundles the
        lanes do not cover, so they are always rescored exactly.
        """
        candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
        bounds = np.full(len(candidate_indices), self._tail_constant, dtype=float)
        survival_product = (
            self.survival[query_index] * self.survival[candidate_indices]
        )
        if self._exact_one_weight:
            if self.alpha_probs is not None:
                one_step = self._one_step_row(query_index)[candidate_indices]
                bounds += self._exact_one_weight * (one_step + BOUND_SLACK)
            else:
                bounds += self._exact_one_weight * survival_product
        bounds += self._exact_rest_weight * survival_product
        if self.lanes is not None and self._lane_weights.size:
            counts = self.lanes.matched_counts(query_index, candidate_indices)
            bounds += (
                counts[:, self._lane_slice] @ self._lane_weights
            ) / self.lanes.num_walks
        bounds += BOUND_SLACK
        bounds[candidate_indices == query_index] = np.inf
        return bounds

    def bounds_for_pairs(
        self, u_indices: np.ndarray, v_indices: np.ndarray, chunk_size: int = 2048
    ) -> np.ndarray:
        """Upper bounds for arbitrary pairs (pair-aligned, self pairs inf).

        The exact ``k = 1`` term falls back to the survival product here:
        pair lists have no shared query vertex to amortize the one-step row
        against, and the bound stays valid, just looser.
        """
        u_indices = np.asarray(u_indices, dtype=np.int64)
        v_indices = np.asarray(v_indices, dtype=np.int64)
        survival_product = self.survival[u_indices] * self.survival[v_indices]
        bounds = (
            self._tail_constant
            + (self._exact_one_weight + self._exact_rest_weight) * survival_product
        )
        if self.lanes is not None and self._lane_weights.size:
            lane_part = np.empty(len(u_indices), dtype=float)
            for start in range(0, len(u_indices), chunk_size):
                stop = min(start + chunk_size, len(u_indices))
                counts = self.lanes.matched_counts_pairs(
                    u_indices[start:stop], v_indices[start:stop]
                )
                lane_part[start:stop] = (
                    counts[:, self._lane_slice] @ self._lane_weights
                )
            bounds = bounds + lane_part / self.lanes.num_walks
        bounds = bounds + BOUND_SLACK
        bounds[u_indices == v_indices] = np.inf
        return bounds


def snapshot_index(
    snapshot,
    method: str,
    num_walks: Optional[int] = None,
    exact_prefix: Optional[int] = None,
) -> Optional[TopKIndex]:
    """The lazily built index of a pinned snapshot, or ``None`` if unusable.

    ``None`` means "fall back to the scan": a required artifact exceeds the
    byte budget, or a laned method has no walk source to resolve its lanes
    through.
    """
    store: TopKIndexStore = snapshot.caches.topk_indexes
    prefix = exact_prefix if exact_prefix is not None else snapshot.exact_prefix
    iterations = snapshot.iterations
    csr = snapshot.csr
    build_ms = 0.0

    survival, elapsed = store.get_or_build(("survival",), lambda: survival_masses(csr))
    build_ms += elapsed
    if survival is None:
        return None
    sinks, elapsed = store.get_or_build(("sinks",), lambda: sink_mask(csr))
    build_ms += elapsed
    if sinks is None:
        return None

    lanes = None
    needs_lanes = method == "sampling" or (
        method == "two_phase" and min(prefix, iterations) < iterations
    )
    if needs_lanes:
        if snapshot.walks is None:
            return None
        walks = num_walks if num_walks is not None else snapshot.num_walks
        itemsize = bundle_dtype(csr.num_vertices).itemsize
        if store.budget_bytes is not None and (
            csr.num_vertices * iterations * walks * itemsize > store.budget_bytes
        ):  # refused before the build floods the bundle store for nothing
            return None
        lanes, elapsed = store.get_or_build(
            ("lanes", walks, iterations),
            lambda: build_lanes(csr, snapshot.walks, walks, iterations),
        )
        build_ms += elapsed
        if lanes is None:
            return None

    alpha_probs = None
    if method in ("baseline", "two_phase", "speedup") and (
        method == "baseline" or min(prefix, iterations) >= 1
    ):
        alpha_probs, elapsed = store.get_or_build(
            ("alpha",),
            lambda: one_step_arc_probabilities(csr, snapshot.caches.alpha_cache),
        )
        build_ms += elapsed
        # Over budget is survivable here: the survival product still bounds
        # the k = 1 term, the index is merely looser.

    return TopKIndex(
        method=method,
        csr=csr,
        decay=snapshot.decay,
        iterations=iterations,
        exact_prefix=prefix,
        survival=survival,
        sinks=sinks,
        lanes=lanes,
        alpha_probs=alpha_probs,
        build_ms=build_ms,
        cache_hit=build_ms == 0.0,
    )


class PruneStats:
    """Counters of one pruned query, surfaced in responses and stats."""

    __slots__ = ("candidates_total", "candidates_rescored", "index_build_ms")

    def __init__(
        self,
        candidates_total: int = 0,
        candidates_rescored: int = 0,
        index_build_ms: float = 0.0,
    ):
        self.candidates_total = candidates_total
        self.candidates_rescored = candidates_rescored
        self.index_build_ms = index_build_ms

    def as_dict(self) -> Dict[str, object]:
        return {
            "candidates_total": self.candidates_total,
            "candidates_rescored": self.candidates_rescored,
            "index_build_ms": self.index_build_ms,
        }


def pruned_rank(
    executor,
    pairs: Sequence[Tuple[Vertex, Vertex]],
    bounds: np.ndarray,
    k: int,
    overrides: Optional[Dict[str, object]] = None,
    rescore_chunk: Optional[int] = None,
    obs=NULL_SCOPE,
) -> Tuple[List[Tuple[int, object]], int]:
    """Rank the top ``k`` of ``pairs`` by exact score, pruning on bounds.

    Returns ``(ranked, rescored)`` where ``ranked`` is a list of
    ``(position, SimilarityResult)`` identical — positions, scores and tie
    order — to ``rank_top_k(k, scores_of_all_pairs)``, and ``rescored``
    counts pairs actually pushed through the executor.

    Candidates are processed in bound-descending order; once ``k`` scores
    are held, candidates whose bound is *strictly* below the current k-th
    best score can never enter the result (their exact score is at most
    the bound), and equal-bound candidates are still rescored, so exact
    ties keep their submission-order ranking.

    ``obs`` is a :class:`repro.obs.StageScope`: the bound-order sort and
    each chunk's threshold cut are timed as ``index_prune``, each exact
    rescore batch as ``index_rescore`` (executor-internal stages nest
    inside it on any bound traces).
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    total = len(pairs)
    if total == 0:
        return [], 0
    with obs.stage("index_prune"):
        order = np.argsort(-bounds, kind="stable")
    chunk = rescore_chunk if rescore_chunk else max(32, 2 * k)
    heap: List[Tuple[float, int]] = []
    results: Dict[int, object] = {}
    rescored = 0
    position = 0
    overrides = dict(overrides or {})
    while position < total:
        batch = order[position : position + chunk]
        exhausted = False
        if len(heap) >= k:
            with obs.stage("index_prune"):
                kth = heap[0][0]
                batch_bounds = bounds[batch]
                keep = int(np.searchsorted(-batch_bounds, -kth, side="right"))
            if keep < len(batch):
                batch = batch[:keep]
                exhausted = True
            if len(batch) == 0:
                break
        with obs.stage("index_rescore"):
            scored = executor.run_batch(
                [pairs[int(p)] for p in batch], dict(overrides)
            )
        for pair_position, result in zip(batch, scored):
            rescored += 1
            item = (result.score, -int(pair_position))
            if len(heap) < k:
                heapq.heappush(heap, item)
                results[int(pair_position)] = result
            elif item > heap[0]:
                _, evicted = heapq.heappushpop(heap, item)
                results.pop(-evicted, None)
                results[int(pair_position)] = result
        if exhausted:
            break
        position += chunk
    ranked = sorted(heap, reverse=True)
    return [(-negated, results[-negated]) for _, negated in ranked], rescored


def _sink_pruned_rank(
    executor,
    pairs: Sequence[Tuple[Vertex, Vertex]],
    certified: np.ndarray,
    bound: Callable[[np.ndarray], np.ndarray],
    k: int,
    overrides: Optional[Dict[str, object]],
    obs,
) -> Tuple[List[Tuple[int, object]], int]:
    """:func:`pruned_rank` over the pairs the sink rule leaves open.

    ``certified`` flags pairs scoring exactly ``0.0``.  Ties at ``0.0`` rank
    by position, so only the ``k`` earliest certified pairs can reach the
    answer: they join the uncertified ones with bound ``0.0`` (rescored
    only if the k-th best score is itself 0), and ``bound(positions)`` is
    evaluated for the uncertified positions alone.  Kept positions stay in
    ascending order, so :func:`pruned_rank`'s tie order is the full one.
    """
    open_positions = np.flatnonzero(~certified)
    kept = np.union1d(open_positions, np.flatnonzero(certified)[:k])
    bounds = np.zeros(len(kept), dtype=float)
    if len(open_positions):
        bounds[~certified[kept]] = bound(open_positions)
    ranked, rescored = pruned_rank(
        executor, [pairs[p] for p in kept], bounds, k, overrides, obs=obs
    )
    return [(int(kept[position]), result) for position, result in ranked], rescored


def pruned_top_k_vertex(
    executor,
    index: TopKIndex,
    query: Vertex,
    candidates: Sequence[Vertex],
    k: int,
    overrides: Optional[Dict[str, object]] = None,
    obs=NULL_SCOPE,
) -> Tuple[List[Tuple[Vertex, object]], PruneStats]:
    """Top-k most similar candidates to ``query``, pruned then rescored."""
    csr = index.csr
    query_index = csr.index_of(query)
    candidate_indices = np.fromiter(
        (csr.index_of(candidate) for candidate in candidates),
        dtype=np.int64,
        count=len(candidates),
    )
    certified = index.certified_zero(query_index, candidate_indices)

    def bound(positions: np.ndarray) -> np.ndarray:
        with obs.stage("index_bound", {"candidates": len(positions)}):
            return index.bounds_for_vertex(query_index, candidate_indices[positions])

    pairs = [(query, candidate) for candidate in candidates]
    ranked, rescored = _sink_pruned_rank(
        executor, pairs, certified, bound, k, overrides, obs
    )
    stats = PruneStats(len(candidates), rescored, index.build_ms)
    return [(candidates[position], result) for position, result in ranked], stats


def pruned_top_k_pairs(
    executor,
    index: TopKIndex,
    pairs: Sequence[Tuple[Vertex, Vertex]],
    k: int,
    overrides: Optional[Dict[str, object]] = None,
    obs=NULL_SCOPE,
) -> Tuple[List[Tuple[Tuple[Vertex, Vertex], object]], PruneStats]:
    """Top-k highest scoring of ``pairs``, pruned then rescored."""
    csr = index.csr
    u_indices = np.fromiter(
        (csr.index_of(u) for u, _ in pairs), dtype=np.int64, count=len(pairs)
    )
    v_indices = np.fromiter(
        (csr.index_of(v) for _, v in pairs), dtype=np.int64, count=len(pairs)
    )
    certified = index.certified_zero(u_indices, v_indices)

    def bound(positions: np.ndarray) -> np.ndarray:
        with obs.stage("index_bound", {"candidates": len(positions)}):
            return index.bounds_for_pairs(u_indices[positions], v_indices[positions])

    ranked, rescored = _sink_pruned_rank(
        executor, pairs, certified, bound, k, overrides, obs
    )
    stats = PruneStats(len(pairs), rescored, index.build_ms)
    return [(pairs[position], result) for position, result in ranked], stats
