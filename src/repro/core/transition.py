"""k-step transition probabilities on uncertain graphs (Section IV-B).

The central fact of the paper is that the k-step transition probability
matrix of an uncertain graph is **not** the k-th power of the one-step
matrix.  The correct value is the expectation, over possible worlds, of the
k-th power of the world's transition matrix — equivalently, the sum of walk
probabilities over all length-k walks between the two endpoints.

Three computation routes are provided:

* :func:`single_source_transition_probabilities` — the workhorse of the exact
  algorithms.  It extends walks from a single source one arc at a time,
  updating walk probabilities incrementally (Lemma 2) and merging walk states
  that are indistinguishable for all future extensions.
* :func:`transition_probability_matrices` — the all-pairs TransPr analogue,
  obtained by running the single-source procedure from every vertex.
* :func:`exact_transition_matrices_by_enumeration` — the brute-force
  possible-world oracle ``Σ_G Pr(G ⇒ G) · (A_G)^k``, used to validate the
  other two on tiny graphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

import numpy as np

from repro.core.walks import AlphaCache
from repro.graph.possible_worlds import enumerate_possible_worlds
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError, ReproError

Vertex = Hashable

# Per-vertex walk statistics in hashable form: (vertex, used-out-neighbours, count).
_StatsKey = FrozenSet[Tuple[Vertex, FrozenSet[Vertex], int]]


class WalkExplosionError(ReproError):
    """The exact walk-extension procedure exceeded its state budget.

    The number of distinct walk states grows with the k-th power of the
    average degree; on dense graphs the exact algorithms are only meant for
    small ``k`` (that is precisely why the paper introduces the sampling and
    two-phase algorithms).
    """


def expected_one_step_matrix(
    graph: UncertainGraph, order: Sequence[Vertex] | None = None
) -> np.ndarray:
    """The one-step transition probability matrix ``W(1)`` of an uncertain graph.

    ``W(1)[u, v]`` is the probability that a random walk standing at ``u``
    moves to ``v`` in one step on a randomly drawn possible world:
    ``P(u, v) · E[1 / (1 + X)]`` with ``X`` the number of other out-arcs of
    ``u`` that exist.  Rows sum to the probability that ``u`` has at least one
    existing out-arc (not necessarily 1 — dead ends absorb the walk).
    """
    index = graph.vertex_index(order)
    matrix = np.zeros((len(index), len(index)), dtype=float)
    cache = AlphaCache(graph)
    for u in index:
        for v in graph.out_neighbors(u):
            if v in index:
                matrix[index[u], index[v]] = cache.value(u, frozenset([v]), 1)
    return matrix


def _merge_key(stats: Dict[Vertex, Tuple[FrozenSet[Vertex], int]]) -> _StatsKey:
    """Hashable canonical form of per-vertex walk statistics."""
    return frozenset((vertex, used, count) for vertex, (used, count) in stats.items())


def single_source_transition_probabilities(
    graph: UncertainGraph,
    source: Vertex,
    max_steps: int,
    max_states: int = 500_000,
    alpha_cache: AlphaCache | None = None,
) -> List[Dict[Vertex, float]]:
    """Exact ``Pr(source →k v)`` for every vertex ``v`` and ``k = 0 … max_steps``.

    Returns a list ``dist`` with ``dist[k][v] = Pr(source →k v)``; vertices
    with zero probability are omitted from the dictionaries.  ``dist[0]`` is
    the point mass on ``source``.

    The procedure maintains the multiset of *walk states*: a walk state is the
    pair (current end vertex, per-vertex usage statistics).  Two walks with the
    same state have identical extension behaviour, so their probabilities are
    merged — this is what keeps the exact computation tractable for the small
    ``k`` regime where it is used (Baseline, and the exact phase of SR-TS).

    Raises
    ------
    WalkExplosionError
        If the number of distinct walk states at any level exceeds
        ``max_states``.
    InvalidParameterError
        If the source vertex is unknown or ``max_steps`` is negative.
    """
    if not graph.has_vertex(source):
        raise InvalidParameterError(f"source vertex {source!r} is not in the graph")
    if max_steps < 0:
        raise InvalidParameterError(f"max_steps must be >= 0, got {max_steps}")

    cache = alpha_cache if alpha_cache is not None else AlphaCache(graph)
    distributions: List[Dict[Vertex, float]] = [{source: 1.0}]

    # frontier: (end vertex, stats key) -> (probability mass, stats dict)
    empty_stats: Dict[Vertex, Tuple[FrozenSet[Vertex], int]] = {}
    frontier: Dict[Tuple[Vertex, _StatsKey], Tuple[float, Dict]] = {
        (source, _merge_key(empty_stats)): (1.0, empty_stats)
    }

    for _ in range(max_steps):
        next_frontier: Dict[Tuple[Vertex, _StatsKey], Tuple[float, Dict]] = {}
        next_distribution: Dict[Vertex, float] = {}
        for (end_vertex, _key), (probability, stats) in frontier.items():
            old_used, old_count = stats.get(end_vertex, (frozenset(), 0))
            old_alpha = cache.value(end_vertex, old_used, old_count) if old_count else 1.0
            for neighbor in graph.out_neighbors(end_vertex):
                new_used = old_used | {neighbor}
                new_count = old_count + 1
                new_alpha = cache.value(end_vertex, new_used, new_count)
                # Lemma 2: only the factor of the extension vertex changes.
                new_probability = probability * new_alpha / old_alpha
                if new_probability <= 0.0:
                    continue
                new_stats = dict(stats)
                new_stats[end_vertex] = (new_used, new_count)
                state = (neighbor, _merge_key(new_stats))
                if state in next_frontier:
                    existing_probability, existing_stats = next_frontier[state]
                    next_frontier[state] = (existing_probability + new_probability, existing_stats)
                else:
                    next_frontier[state] = (new_probability, new_stats)
                    # A level's state count only grows, so the budget is
                    # checked at each new state rather than after the level.
                    if len(next_frontier) > max_states:
                        raise WalkExplosionError(
                            f"exact walk extension produced {len(next_frontier)} "
                            f"states (budget {max_states}); use the sampling or "
                            "two-phase algorithm instead"
                        )
                next_distribution[neighbor] = (
                    next_distribution.get(neighbor, 0.0) + new_probability
                )
        distributions.append(next_distribution)
        frontier = next_frontier
        if not frontier:
            # All walks died at dead ends; remaining distributions are empty.
            for _ in range(len(distributions), max_steps + 1):
                distributions.append({})
            break
    return distributions


def transition_probability_matrices(
    graph: UncertainGraph,
    max_steps: int,
    order: Sequence[Vertex] | None = None,
    max_states: int = 500_000,
) -> List[np.ndarray]:
    """All-pairs transition matrices ``[W(0), W(1), …, W(max_steps)]``.

    ``W(0)`` is the identity.  This is the in-memory analogue of the paper's
    TransPr algorithm (which streams walk files to disk); it simply runs the
    single-source procedure from every vertex and shares one α cache.
    """
    vertices = list(order) if order is not None else graph.vertices()
    index = {vertex: position for position, vertex in enumerate(vertices)}
    n = len(vertices)
    matrices = [np.zeros((n, n), dtype=float) for _ in range(max_steps + 1)]
    matrices[0] = np.eye(n)
    cache = AlphaCache(graph)
    for source in vertices:
        distributions = single_source_transition_probabilities(
            graph, source, max_steps, max_states=max_states, alpha_cache=cache
        )
        row = index[source]
        for k in range(1, max_steps + 1):
            for target, probability in distributions[k].items():
                if target in index:
                    matrices[k][row, index[target]] = probability
    return matrices


def exact_transition_matrices_by_enumeration(
    graph: UncertainGraph,
    max_steps: int,
    order: Sequence[Vertex] | None = None,
) -> List[np.ndarray]:
    """Ground-truth transition matrices via exhaustive possible-world enumeration.

    ``W(k) = Σ_G Pr(G ⇒ G) · (A_G)^k`` where ``A_G`` is the row-normalised
    adjacency matrix of possible world ``G`` (rows of dead-end vertices are
    zero).  Exponential in the number of arcs — a test oracle, nothing more.
    """
    if max_steps < 0:
        raise InvalidParameterError(f"max_steps must be >= 0, got {max_steps}")
    vertices = list(order) if order is not None else graph.vertices()
    n = len(vertices)
    matrices = [np.zeros((n, n), dtype=float) for _ in range(max_steps + 1)]
    for world, probability in enumerate_possible_worlds(graph):
        transition = world.transition_matrix(order=vertices)
        power = np.eye(n)
        matrices[0] += probability * power
        for k in range(1, max_steps + 1):
            power = power @ transition
            matrices[k] += probability * power
    return matrices


def verify_not_matrix_power(
    graph: UncertainGraph, steps: int = 2, tolerance: float = 1e-9
) -> Tuple[bool, float]:
    """Check the paper's motivating claim ``W(k) != (W(1))^k`` on a given graph.

    Returns ``(differs, max_abs_difference)`` comparing the exact ``W(steps)``
    with the ``steps``-th power of ``W(1)``.  On graphs whose girth exceeds
    ``steps`` the two coincide (no walk can revisit a vertex), so the claim is
    only expected to hold for graphs containing short cycles.
    """
    matrices = transition_probability_matrices(graph, steps)
    power = np.linalg.matrix_power(matrices[1], steps)
    difference = float(np.abs(matrices[steps] - power).max())
    return difference > tolerance, difference
