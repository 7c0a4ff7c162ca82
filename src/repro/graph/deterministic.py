"""Deterministic directed graphs.

A :class:`DeterministicGraph` plays two roles in this library:

* a *possible world* of an uncertain graph (Section II of the paper), and
* the input to the deterministic-SimRank comparators (SimRank-II in the
  experiments).

The class is intentionally lightweight: adjacency is kept as dictionaries so
vertex labels can be arbitrary hashables, and a row-normalised transition
matrix can be materialised on demand for the matrix-form algorithms.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

Vertex = Hashable
Arc = Tuple[Vertex, Vertex]


class DeterministicGraph:
    """A directed graph without edge uncertainty.

    Parameters
    ----------
    vertices:
        Optional iterable of vertices to pre-register (isolated vertices are
        legal and matter for possible worlds, which keep every vertex of the
        uncertain graph even when all of its arcs are absent).
    arcs:
        Optional iterable of ``(u, v)`` arcs.  Endpoints are added
        automatically.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        arcs: Iterable[Arc] = (),
    ) -> None:
        self._out: Dict[Vertex, set] = {}
        self._in: Dict[Vertex, set] = {}
        for vertex in vertices:
            self.add_vertex(vertex)
        for u, v in arcs:
            self.add_arc(u, v)

    # -- construction -------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> None:
        """Register ``vertex`` (no-op if already present)."""
        if vertex not in self._out:
            self._out[vertex] = set()
            self._in[vertex] = set()

    def add_arc(self, u: Vertex, v: Vertex) -> None:
        """Add the arc ``(u, v)``; endpoints are registered automatically."""
        self.add_vertex(u)
        self.add_vertex(v)
        self._out[u].add(v)
        self._in[v].add(u)

    def remove_arc(self, u: Vertex, v: Vertex) -> None:
        """Remove the arc ``(u, v)``; raises ``KeyError`` if absent."""
        self._out[u].remove(v)
        self._in[v].remove(u)

    # -- queries ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._out)

    @property
    def num_arcs(self) -> int:
        """Number of arcs."""
        return sum(len(neighbors) for neighbors in self._out.values())

    def vertices(self) -> List[Vertex]:
        """All vertices in insertion order."""
        return list(self._out)

    def arcs(self) -> Iterator[Arc]:
        """Iterate over all arcs."""
        for u, neighbors in self._out.items():
            for v in neighbors:
                yield (u, v)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` is present."""
        return vertex in self._out

    def has_arc(self, u: Vertex, v: Vertex) -> bool:
        """Whether arc ``(u, v)`` is present."""
        return u in self._out and v in self._out[u]

    def out_neighbors(self, vertex: Vertex) -> set:
        """Out-neighbour set of ``vertex``."""
        return set(self._out[vertex])

    def in_neighbors(self, vertex: Vertex) -> set:
        """In-neighbour set of ``vertex``."""
        return set(self._in[vertex])

    def out_degree(self, vertex: Vertex) -> int:
        """Out-degree of ``vertex``."""
        return len(self._out[vertex])

    def in_degree(self, vertex: Vertex) -> int:
        """In-degree of ``vertex``."""
        return len(self._in[vertex])

    # -- matrix views --------------------------------------------------------

    def vertex_index(self, order: Sequence[Vertex] | None = None) -> Dict[Vertex, int]:
        """Mapping from vertex to matrix row/column index.

        ``order`` fixes the indexing (useful when several possible worlds of
        one uncertain graph must share an index); by default insertion order
        is used.
        """
        vertices = list(order) if order is not None else self.vertices()
        return {vertex: index for index, vertex in enumerate(vertices)}

    def transition_matrix(self, order: Sequence[Vertex] | None = None) -> np.ndarray:
        """Row-normalised adjacency matrix (one-step transition probabilities).

        Rows of vertices with out-degree zero are all zero: a random walk that
        reaches such a vertex stops, which is the dead-end convention shared
        by all algorithms in this library (a truncated walk never meets
        another, so dead ends add no SimRank mass rather than teleporting).
        """
        index = self.vertex_index(order)
        n = len(index)
        matrix = np.zeros((n, n), dtype=float)
        for u, neighbors in self._out.items():
            if not neighbors or u not in index:
                continue
            weight = 1.0 / len(neighbors)
            row = index[u]
            for v in neighbors:
                if v in index:
                    matrix[row, index[v]] = weight
        return matrix

    def column_normalized_adjacency(
        self, order: Sequence[Vertex] | None = None
    ) -> np.ndarray:
        """Column-normalised adjacency matrix used by matrix-form SimRank."""
        index = self.vertex_index(order)
        n = len(index)
        matrix = np.zeros((n, n), dtype=float)
        for v, parents in self._in.items():
            if not parents or v not in index:
                continue
            weight = 1.0 / len(parents)
            col = index[v]
            for u in parents:
                if u in index:
                    matrix[index[u], col] = weight
        return matrix

    # -- conversions ---------------------------------------------------------

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (for interoperability)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.vertices())
        graph.add_edges_from(self.arcs())
        return graph

    @classmethod
    def from_networkx(cls, graph) -> "DeterministicGraph":
        """Build from a :class:`networkx.DiGraph` (edges of undirected graphs
        are added in both directions)."""
        result = cls(vertices=graph.nodes())
        directed = graph.is_directed()
        for u, v in graph.edges():
            result.add_arc(u, v)
            if not directed:
                result.add_arc(v, u)
        return result

    def copy(self) -> "DeterministicGraph":
        """Deep copy of the structure."""
        return DeterministicGraph(vertices=self.vertices(), arcs=self.arcs())

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._out

    def __repr__(self) -> str:
        return (
            f"DeterministicGraph(|V|={self.num_vertices}, |E|={self.num_arcs})"
        )
