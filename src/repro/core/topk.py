"""Top-k similarity queries on uncertain graphs.

Both case studies of the paper are top-k queries: the protein study reports
the top-20 most similar protein pairs and the top-5 proteins most similar to a
query protein.  These helpers evaluate a SimRank estimator over a candidate
set and return the best-scoring items.

Scoring goes through :meth:`SimRankEngine.similarity_many`, so for the
sampling-based estimators the walk bundles are sampled once per unique
endpoint of the candidate set and reused across every
candidate pair — a top-k-for-vertex query over ``m`` candidates costs
``m + 1`` bundle samples instead of ``2m``.  Ranking is deterministic: ties
are broken by candidate order (earlier candidates win), and ``k`` larger than
the candidate set simply returns every candidate, ranked.

With ``use_index=True`` both helpers consult the snapshot's
:mod:`~repro.core.topk_index` — a per-epoch walk-fingerprint index yielding
a provable upper bound per candidate — and only exact-rescore candidates
whose bound could still reach the k-th best score.  The pruned ranking is
bit-identical to the scan (same :func:`rank_top_k` tie-breaking); when the
index cannot serve the request (an artifact over the byte budget), the
helpers silently fall back to the scan.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.engine import SimRankEngine
from repro.core.topk_index import (
    pruned_top_k_pairs,
    pruned_top_k_vertex,
    snapshot_index,
)
from repro.utils.errors import InvalidParameterError

Vertex = Hashable
ScoredPair = Tuple[Vertex, Vertex, float]
ScoredVertex = Tuple[Vertex, float]

#: Default candidate pairs evaluated per ``similarity_many`` call by
#: :func:`top_k_similar_pairs` (overridable per call via ``chunk_size=``).
#: Bounds the memory of the quadratic default candidate space (only one
#: chunk of pairs and results is live at a time) while keeping each batch
#: large enough to share walk bundles.
PAIR_CHUNK_SIZE = 2048


def rank_top_k(k: int, scores: Sequence[float]) -> List[int]:
    """Indices of the ``k`` best scores, ties broken by candidate order.

    The single tie-breaking rule of every top-k surface (these helpers and
    the service layer), so their rankings can never diverge.
    """
    best = heapq.nlargest(k, enumerate(scores), key=lambda item: (item[1], -item[0]))
    return [index for index, _ in best]


def _chunks(iterable: Iterable, size: int) -> Iterable[list]:
    chunk: list = []
    for item in iterable:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _engine_index(engine: SimRankEngine, method: str, overrides: dict):
    """The engine snapshot's index for one query, or ``None`` to scan."""
    snapshot = engine.snapshot()
    return snapshot, snapshot_index(
        snapshot,
        method,
        num_walks=overrides.get("num_walks"),
        exact_prefix=overrides.get("exact_prefix"),
    )


def top_k_similar_pairs(
    engine: SimRankEngine,
    k: int,
    candidate_pairs: Optional[Iterable[Tuple[Vertex, Vertex]]] = None,
    method: str = "two_phase",
    chunk_size: Optional[int] = None,
    use_index: bool = False,
    **overrides: object,
) -> List[ScoredPair]:
    """The ``k`` most similar vertex pairs.

    ``candidate_pairs`` restricts the search (recommended — the full pair
    space is quadratic); by default all unordered pairs of distinct vertices
    are evaluated, which is only sensible for small graphs.  Explicit
    candidate pairs naming vertices outside the graph are rejected — the
    check runs once per pair up front, not per chunk, and the quadratic
    default space (generated from the graph itself) skips it entirely.

    Candidates stream through :meth:`SimRankEngine.similarity_many` in
    chunks of ``chunk_size`` (default :data:`PAIR_CHUNK_SIZE`), so memory
    stays bounded by ``k`` plus one chunk even on the quadratic default
    space, while sampling-based methods still share walk bundles within
    each chunk (and across chunks when the engine has a ``bundle_store``).

    ``use_index=True`` prunes candidates through the snapshot's top-k index
    before exact re-scoring; the ranking is unchanged.  Note the indexed
    path materializes the candidate list to sort bounds globally.

    Returns a list of ``(u, v, score)`` sorted by decreasing score; ties keep
    candidate order.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    size = PAIR_CHUNK_SIZE if chunk_size is None else int(chunk_size)
    if size < 1:
        raise InvalidParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    explicit: Optional[List[Tuple[Vertex, Vertex]]] = None
    if candidate_pairs is not None:
        explicit = [(u, v) for u, v in candidate_pairs]
        # Hoisted validation: one pass over the explicit candidates, before
        # any scoring work, instead of re-checking inside the chunk loop.
        for u, v in explicit:
            if not engine.graph.has_vertex(u) or not engine.graph.has_vertex(v):
                raise InvalidParameterError(
                    f"candidate pair names unknown vertices: {u!r}, {v!r}"
                )
    if use_index:
        pairs = (
            explicit
            if explicit is not None
            else list(combinations(engine.graph.vertices(), 2))
        )
        snapshot, index = _engine_index(engine, method, overrides)
        if index is not None:
            executor = engine.batch_executor(method)
            ranked, _ = pruned_top_k_pairs(executor, index, pairs, k, overrides)
            return [(u, v, result.score) for (u, v), result in ranked]
        candidate_stream: Iterable[Tuple[Vertex, Vertex]] = pairs
    elif explicit is not None:
        candidate_stream = explicit
    else:
        candidate_stream = combinations(engine.graph.vertices(), 2)
    best: List[Tuple[float, int, Vertex, Vertex]] = []
    counter = 0
    for chunk in _chunks(candidate_stream, size):
        results = engine.similarity_many(chunk, method=method, **overrides)
        for (u, v), result in zip(chunk, results):
            # Ties break toward earlier candidates; the unique counter also
            # keeps the heap from ever comparing vertex labels.
            item = (result.score, -counter, u, v)
            if len(best) < k:
                heapq.heappush(best, item)
            elif item > best[0]:
                heapq.heapreplace(best, item)
            counter += 1
    ranked = sorted(best, reverse=True)
    return [(u, v, score) for score, _, u, v in ranked]


def top_k_similar_to(
    engine: SimRankEngine,
    query: Vertex,
    k: int,
    candidates: Optional[Sequence[Vertex]] = None,
    method: str = "two_phase",
    use_index: bool = False,
    **overrides: object,
) -> List[ScoredVertex]:
    """The ``k`` vertices most similar to ``query``.

    ``candidates`` defaults to every other vertex of the graph; the query
    vertex itself is always excluded, and candidates outside the graph are
    rejected up front.  ``use_index=True`` prunes candidates through the
    snapshot's top-k index before exact re-scoring (falling back to the
    scan when the index cannot serve the request); the ranking is
    identical either way.  Returns ``(vertex, score)`` pairs sorted by
    decreasing score; ties keep candidate order.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not engine.graph.has_vertex(query):
        raise InvalidParameterError(f"query vertex {query!r} is not in the graph")
    if candidates is None:
        candidates = [v for v in engine.graph.vertices() if v != query]
    else:
        kept = []
        for vertex in candidates:
            if vertex == query:
                continue
            if not engine.graph.has_vertex(vertex):
                raise InvalidParameterError(
                    f"candidate vertex {vertex!r} is not in the graph"
                )
            kept.append(vertex)
        candidates = kept
    if use_index:
        snapshot, index = _engine_index(engine, method, overrides)
        if index is not None:
            executor = engine.batch_executor(method)
            ranked, _ = pruned_top_k_vertex(
                executor, index, query, candidates, k, overrides
            )
            return [(vertex, result.score) for vertex, result in ranked]
    results = engine.similarity_many(
        [(query, vertex) for vertex in candidates], method=method, **overrides
    )
    scores = [result.score for result in results]
    return [(candidates[i], scores[i]) for i in rank_top_k(k, scores)]
