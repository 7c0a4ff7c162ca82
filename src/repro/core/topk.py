"""Top-k similarity queries on uncertain graphs.

Both case studies of the paper are top-k queries: the protein study reports
the top-20 most similar protein pairs and the top-5 proteins most similar to a
query protein.  This module is the one place that ranks top-k answers; the
engine helpers :func:`top_k_similar_to` / :func:`top_k_similar_pairs` and the
serving layer's top-k plans all call it.

* :func:`checked_candidates` — the one validator of a top-k request
  against a snapshot's vertices.
* :func:`rank_top_k` / :func:`top_k_of` — the single tie-breaking rule:
  ties keep candidate order (earlier candidates win), and ``k`` larger than
  the candidate set returns every candidate, ranked.
* :func:`vertex_top_k` / :func:`pair_top_k` — rank vertex candidates of a
  query, or explicit candidate pairs, over one
  :class:`~repro.core.executors.MethodExecutor`: one ``run_batch`` scan, or,
  given a :mod:`~repro.core.topk_index` index, the pruned two-phase plan
  (bound every candidate, exact-rescore only those whose bound could still
  reach the k-th best score).
* :func:`all_pairs_top_k` — the quadratic default pair space, streamed in
  chunks of :data:`PAIR_CHUNK_SIZE` through one heap, optionally dropping
  each chunk's pairs whose index bound is below the k-th best score.

Scoring goes through the executor's ``run_batch``, so for the
sampling-based estimators the walk bundles are sampled once per unique
endpoint of a batch and reused across every candidate pair — a
top-k-for-vertex scan over ``m`` candidates costs ``m + 1`` bundle samples
instead of ``2m``.  The pruned and streamed plans are bit-identical to the
scan (same :func:`rank_top_k` tie-breaking); when the index cannot serve a
request (an artifact over the byte budget), the engine helpers fall back to
the scan.
"""

from __future__ import annotations

import heapq
from itertools import combinations, islice
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import SimRankEngine
from repro.core.topk_index import (
    PruneStats,
    TopKIndex,
    pruned_top_k_pairs,
    pruned_top_k_vertex,
    snapshot_index,
)
from repro.graph.csr import CSRGraph
from repro.obs import NULL_SCOPE
from repro.utils.errors import InvalidParameterError

Vertex = Hashable
ScoredPair = Tuple[Vertex, Vertex, float]
ScoredVertex = Tuple[Vertex, float]

#: Candidate pairs scored per ``run_batch`` call by :func:`all_pairs_top_k`.
#: Bounds the memory of the quadratic default candidate space (only one
#: chunk of pairs and results is live at a time) while keeping each batch
#: large enough to share walk bundles.
PAIR_CHUNK_SIZE = 2048


def checked_candidates(
    csr: CSRGraph,
    k: int,
    candidates: Optional[Iterable] = None,
    query: Vertex = None,
    pairs: bool = False,
) -> Optional[list]:
    """Validate a top-k request against ``csr``; returns its candidates.

    With ``pairs=False`` the request ranks the vertex candidates of
    ``query``: ``None`` means every other vertex, and the query itself is
    always dropped.  With ``pairs=True`` ``candidates`` are vertex pairs,
    and ``None`` (the quadratic default space, which
    :func:`all_pairs_top_k` streams from the snapshot itself) is returned
    as ``None``.  Every named vertex must be in the graph.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")

    def require(vertex: Vertex) -> Vertex:
        if not csr.has_vertex(vertex):
            raise InvalidParameterError(f"vertex {vertex!r} is not in the graph")
        return vertex

    if pairs:
        if candidates is None:
            return None
        return [(require(u), require(v)) for u, v in candidates]
    require(query)
    if candidates is None:
        return [vertex for vertex in csr.vertices if vertex != query]
    return [require(vertex) for vertex in candidates if vertex != query]


def rank_top_k(k: int, scores: Sequence[float]) -> List[int]:
    """Indices of the ``k`` best scores, ties broken by candidate order.

    The single tie-breaking rule of every top-k surface (the engine helpers
    and the service layer), so their rankings can never diverge.
    """
    best = heapq.nlargest(k, enumerate(scores), key=lambda item: (item[1], -item[0]))
    return [index for index, _ in best]


def top_k_of(k: int, items: Sequence, results: Sequence) -> List[Tuple[object, float]]:
    """``(item, score)`` of the ``k`` best scored ``items``, ranked."""
    scores = [result.score for result in results]
    return [(items[index], scores[index]) for index in rank_top_k(k, scores)]


def vertex_top_k(
    executor,
    query: Vertex,
    candidates: Sequence[Vertex],
    k: int,
    overrides: Dict[str, object],
    index: Optional[TopKIndex] = None,
    obs=NULL_SCOPE,
) -> Tuple[List[ScoredVertex], Optional[PruneStats]]:
    """The ``k`` candidates most similar to ``query``, ranked.

    Scans every candidate through ``executor``, or with an ``index`` prunes
    then rescores (:func:`~repro.core.topk_index.pruned_top_k_vertex`);
    the prune counters are returned alongside (``None`` for the scan).
    """
    if index is None:
        results = executor.run_batch(
            [(query, vertex) for vertex in candidates], overrides
        )
        return top_k_of(k, candidates, results), None
    ranked, prune = pruned_top_k_vertex(
        executor, index, query, candidates, k, overrides, obs=obs
    )
    return [(vertex, result.score) for vertex, result in ranked], prune


def pair_top_k(
    executor,
    pairs: Sequence[Tuple[Vertex, Vertex]],
    k: int,
    overrides: Dict[str, object],
    index: Optional[TopKIndex] = None,
    obs=NULL_SCOPE,
) -> Tuple[List[ScoredPair], Optional[PruneStats]]:
    """The ``k`` highest scoring explicit candidate ``pairs``, ranked.

    Like :func:`vertex_top_k`: one scan, or the index-pruned plan of
    :func:`~repro.core.topk_index.pruned_top_k_pairs`.
    """
    if index is None:
        ranked = top_k_of(k, pairs, executor.run_batch(list(pairs), overrides))
        return [(u, v, score) for (u, v), score in ranked], None
    ranked, prune = pruned_top_k_pairs(executor, index, pairs, k, overrides, obs=obs)
    return [(u, v, result.score) for (u, v), result in ranked], prune


def all_pairs_top_k(
    executor,
    k: int,
    overrides: Dict[str, object],
    index: Optional[TopKIndex] = None,
    obs=NULL_SCOPE,
) -> Tuple[List[ScoredPair], Optional[PruneStats]]:
    """Top-k over every unordered vertex pair of the executor's snapshot.

    The pairs stream chunk by chunk (:data:`PAIR_CHUNK_SIZE`) through
    ``executor``, sharing prefix work and bundles within a chunk; between
    chunks the executor's shared state is reset, so memory stays
    O(k + chunk) however large the graph.

    With an ``index``, once ``k`` scores are held each chunk drops the pairs
    whose upper bound is *strictly* below the current k-th best before
    rescoring — they can never displace a held entry nor tie one — so the
    answer is unchanged.  Candidate positions are assigned before pruning,
    keeping tie order identical to :func:`rank_top_k`.
    """
    csr = executor.snapshot.csr
    best: List[Tuple[float, int, Vertex, Vertex]] = []
    total = rescored = 0
    stream = combinations(csr.vertices, 2)
    while True:
        chunk = list(islice(stream, PAIR_CHUNK_SIZE))
        if not chunk:
            break
        positions: Sequence[int] = range(total, total + len(chunk))
        total += len(chunk)
        if index is not None and len(best) >= k:
            with obs.stage("index_bound"):
                u_indices = np.fromiter(
                    (csr.index_of(u) for u, _ in chunk), dtype=np.int64, count=len(chunk)
                )
                v_indices = np.fromiter(
                    (csr.index_of(v) for _, v in chunk), dtype=np.int64, count=len(chunk)
                )
                survivors = index.bounds_for_pairs(u_indices, v_indices) >= best[0][0]
            with obs.stage("index_prune"):
                chunk = [pair for pair, kept in zip(chunk, survivors) if kept]
                positions = [p for p, kept in zip(positions, survivors) if kept]
        rescored += len(chunk)
        for (u, v), position, result in zip(
            chunk, positions, executor.run_batch(chunk, overrides)
        ):
            item = (result.score, -position, u, v)
            if len(best) < k:
                heapq.heappush(best, item)
            elif item > best[0]:
                heapq.heapreplace(best, item)
        executor.reset_shared_state()
    ranked = [(u, v, score) for score, _, u, v in sorted(best, reverse=True)]
    if index is None:
        return ranked, None
    return ranked, PruneStats(total, rescored, index.build_ms)


def _engine_index(executor, use_index: bool, overrides: dict) -> Optional[TopKIndex]:
    """The index of an engine helper's snapshot, or ``None`` to scan."""
    if not use_index:
        return None
    return snapshot_index(
        executor.snapshot,
        executor.method,
        num_walks=overrides.get("num_walks"),
        exact_prefix=overrides.get("exact_prefix"),
    )


def top_k_similar_pairs(
    engine: SimRankEngine,
    k: int,
    candidate_pairs: Optional[Iterable[Tuple[Vertex, Vertex]]] = None,
    method: str = "two_phase",
    use_index: bool = False,
    **overrides: object,
) -> List[ScoredPair]:
    """The ``k`` most similar vertex pairs.

    ``candidate_pairs`` restricts the search (recommended — the full pair
    space is quadratic); by default all unordered pairs of distinct vertices
    are streamed through :func:`all_pairs_top_k`, which is only sensible for
    small graphs.  Explicit candidate pairs naming vertices outside the
    graph are rejected up front.

    ``use_index=True`` prunes candidates through the snapshot's top-k index
    before exact re-scoring; the ranking is unchanged.

    Returns a list of ``(u, v, score)`` sorted by decreasing score; ties keep
    candidate order.
    """
    executor = engine.batch_executor(method)
    pairs = checked_candidates(executor.snapshot.csr, k, candidate_pairs, pairs=True)
    index = _engine_index(executor, use_index, overrides)
    if pairs is None:
        return all_pairs_top_k(executor, k, overrides, index)[0]
    return pair_top_k(executor, pairs, k, overrides, index)[0]


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
    executor = engine.batch_executor(method)
    candidates = checked_candidates(executor.snapshot.csr, k, candidates, query=query)
    index = _engine_index(executor, use_index, overrides)
    return vertex_top_k(executor, query, candidates, k, overrides, index)[0]
