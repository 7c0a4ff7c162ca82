"""Walk probabilities on uncertain graphs (Section IV-A of the paper).

The key object is the *walk probability* of a walk ``W = v0 v1 … vk``:

    Pr_G(X1 = v1, …, Xk = vk | X0 = v0)

the probability that a random walk started at ``v0`` on a randomly drawn
possible world follows exactly ``W``.  Lemma 1 factorises this probability
over the distinct vertices of ``W``:

    Pr_G(W) = Π_{v ∈ V(W)} α_W(v)

where ``α_W(v)`` depends only on three things: the set ``O_W(v)`` of
out-neighbours the walk uses from ``v``, the count ``c_W(v)`` of outgoing
steps the walk takes from ``v``, and the probabilities of the out-arcs of
``v`` in the uncertain graph.  Equation 11 evaluates ``α_W(v)`` with a
dynamic program over the distribution of the number of *other* out-arcs of
``v`` that happen to exist.

This module implements that dynamic program (:func:`alpha`), the per-walk
bookkeeping (:class:`WalkStatistics`) and the full WalkPr algorithm
(:func:`walk_probability`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, Sequence, Tuple

import numpy as np

from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError

Vertex = Hashable


def presence_count_distribution(probabilities: Sequence[float]) -> np.ndarray:
    """Distribution of how many of the given independent arcs exist.

    This is the ``r(i, j)`` table of the paper collapsed to its last row:
    entry ``x`` of the returned vector is the probability that exactly ``x``
    of the arcs with the given existence probabilities are present in a random
    possible world (a Poisson-binomial distribution computed by the standard
    O(n^2) dynamic program).
    """
    distribution = np.zeros(len(probabilities) + 1, dtype=float)
    distribution[0] = 1.0
    for index, probability in enumerate(probabilities):
        if not 0.0 <= probability <= 1.0:
            raise InvalidParameterError(
                f"arc probability must be in [0, 1], got {probability}"
            )
        # r(i, j) = r(i-1, j-1) * p_i + r(i-1, j) * (1 - p_i)
        upper = index + 1
        previous = distribution[: upper + 1].copy()
        distribution[1 : upper + 1] = (
            previous[:upper] * probability + previous[1 : upper + 1] * (1.0 - probability)
        )
        distribution[0] = previous[0] * (1.0 - probability)
    return distribution


def _inv(value: int) -> float:
    """The paper's ``inv``: reciprocal, with ``inv(0) = 1`` by convention."""
    return 1.0 / value if value else 1.0


def alpha(
    graph: UncertainGraph,
    vertex: Vertex,
    used_out_neighbors: FrozenSet[Vertex] | set,
    out_step_count: int,
) -> float:
    """The per-vertex factor ``α_W(v)`` of Lemma 1 / Eq. 11.

    Parameters
    ----------
    graph:
        The uncertain graph.
    vertex:
        The vertex ``v``.
    used_out_neighbors:
        ``O_W(v)`` — the out-neighbours of ``v`` that the walk steps to.
    out_step_count:
        ``c_W(v)`` — the number of outgoing steps the walk takes from ``v``
        (``>= len(used_out_neighbors)`` because the walk may reuse an arc).

    Returns
    -------
    float
        ``α_W(v) = Π_{w ∈ O_W(v)} P(v, w) · Σ_x r(n, x) · inv(x + |O_W(v)|)^{c_W(v)}``
        where ``r`` is the presence-count distribution of the out-arcs of
        ``v`` *not* used by the walk.
    """
    used = frozenset(used_out_neighbors)
    if out_step_count < len(used):
        raise InvalidParameterError(
            "out_step_count cannot be smaller than the number of used out-neighbours"
        )
    if out_step_count == 0:
        # A vertex with no outgoing step contributes a factor of 1.
        return 1.0

    out_arcs = graph.out_arcs(vertex)
    missing = used.difference(out_arcs)
    if missing:
        raise InvalidParameterError(
            f"walk uses arcs {sorted(map(repr, missing))} that are not in the graph"
        )

    required_probability = 1.0
    for neighbor in used:
        required_probability *= out_arcs[neighbor]

    other_probabilities = [
        probability for neighbor, probability in out_arcs.items() if neighbor not in used
    ]
    distribution = presence_count_distribution(other_probabilities)
    used_count = len(used)
    expectation = 0.0
    for extra, weight in enumerate(distribution):
        expectation += weight * _inv(extra + used_count) ** out_step_count
    return required_probability * expectation


@dataclass
class WalkStatistics:
    """Per-vertex bookkeeping of a walk: ``O_W(v)`` and ``c_W(v)``.

    The two-phase and baseline algorithms extend walks one arc at a time; this
    class supports that incrementally (Lemma 2): extending a walk only changes
    the statistics — and therefore the ``α`` factor — of the vertex the walk
    currently ends at.
    """

    used_out_neighbors: Dict[Vertex, FrozenSet[Vertex]] = field(default_factory=dict)
    out_step_counts: Dict[Vertex, int] = field(default_factory=dict)

    @classmethod
    def from_walk(cls, walk: Sequence[Vertex]) -> "WalkStatistics":
        """Statistics of a complete walk given as a vertex sequence."""
        stats = cls()
        for position in range(len(walk) - 1):
            stats = stats.extended(walk[position], walk[position + 1])
        return stats

    def extended(self, tail: Vertex, new_vertex: Vertex) -> "WalkStatistics":
        """Statistics after appending the arc ``(tail, new_vertex)``."""
        used = dict(self.used_out_neighbors)
        counts = dict(self.out_step_counts)
        used[tail] = used.get(tail, frozenset()) | {new_vertex}
        counts[tail] = counts.get(tail, 0) + 1
        return WalkStatistics(used_out_neighbors=used, out_step_counts=counts)

    def of(self, vertex: Vertex) -> Tuple[FrozenSet[Vertex], int]:
        """Return ``(O_W(vertex), c_W(vertex))``."""
        return (
            self.used_out_neighbors.get(vertex, frozenset()),
            self.out_step_counts.get(vertex, 0),
        )


class AlphaCache:
    """Memoised evaluation of ``α`` factors.

    Many walks from the same source share identical per-vertex statistics, so
    caching on ``(vertex, O_W(v), c_W(v))`` removes the dominant cost of the
    exact algorithms.
    """

    def __init__(self, graph: UncertainGraph):
        self._graph = graph
        self._cache: Dict[Tuple[Vertex, FrozenSet[Vertex], int], float] = {}

    def value(
        self, vertex: Vertex, used_out_neighbors: FrozenSet[Vertex], out_step_count: int
    ) -> float:
        """``α_W(v)`` for the given statistics (memoised)."""
        key = (vertex, used_out_neighbors, out_step_count)
        cached = self._cache.get(key)
        if cached is None:
            cached = alpha(self._graph, vertex, used_out_neighbors, out_step_count)
            self._cache[key] = cached
        return cached

    def fill(self, items: Iterable) -> None:
        """Memoise ``(key, value)`` pairs that equal :func:`alpha`'s bit for bit."""
        self._cache.update(items)

    def __len__(self) -> int:
        return len(self._cache)


def is_walk(graph: UncertainGraph, walk: Sequence[Vertex]) -> bool:
    """Whether the vertex sequence is a walk of the uncertain graph."""
    if not walk:
        return False
    if any(not graph.has_vertex(vertex) for vertex in walk):
        return False
    return all(
        graph.has_arc(walk[position], walk[position + 1])
        for position in range(len(walk) - 1)
    )


def walk_probability(graph: UncertainGraph, walk: Sequence[Vertex]) -> float:
    """The WalkPr algorithm (Fig. 2): probability of a walk on an uncertain graph.

    ``walk`` is the vertex sequence ``v0 v1 … vk``; the returned value is the
    probability that a random walk starting at ``v0`` on a randomly selected
    possible world follows exactly this sequence.  A single vertex (walk of
    length 0) has probability 1; a sequence that is not a walk of the graph
    has probability 0.
    """
    if not walk:
        raise InvalidParameterError("walk must contain at least one vertex")
    for vertex in walk:
        if not graph.has_vertex(vertex):
            raise InvalidParameterError(f"vertex {vertex!r} is not in the graph")
    if not is_walk(graph, walk):
        return 0.0
    statistics = WalkStatistics.from_walk(walk)
    probability = 1.0
    for vertex in set(walk):
        used, count = statistics.of(vertex)
        probability *= alpha(graph, vertex, used, count)
    return probability
