"""Frozen, array-backed snapshots of uncertain graphs (CSR layout).

:class:`UncertainGraph` is a mutable dict-of-dict structure, convenient for
construction but slow for the sampling hot paths, which spend their time doing
per-vertex neighbour lookups.  :class:`CSRGraph` freezes a graph into the
standard compressed-sparse-row triple

* ``indptr``  — ``(n + 1,)`` int64, the out-arc slice boundaries per vertex,
* ``indices`` — ``(m,)`` int64, the dense destination index of each arc,
* ``probs``   — ``(m,)`` float64, the existence probability of each arc,

plus a dense vertex indexing (``index_of`` / ``vertex_at``) in the graph's
insertion order, matching :meth:`UncertainGraph.vertex_index`.  Everything the
batch walk engine and the SR-SP filter construction and propagation need —
degrees, arc slices, arc sources — comes straight off these arrays.

Snapshots are cached on the source graph keyed by its mutation
:attr:`~repro.graph.uncertain_graph.UncertainGraph.version`, so repeated
queries against an unchanged graph reuse one snapshot and mutations
transparently invalidate it.

Two rebuild paths exist after a mutation:

* :meth:`CSRGraph.from_uncertain` — the full re-freeze, iterating every arc
  of the dict-of-dict graph (O(n + m) Python-level work).
* :meth:`CSRGraph.from_uncertain_incremental` — given the previous snapshot
  and the set of *dirty* source vertices (those whose out-adjacency changed),
  copies every untouched adjacency row straight out of the previous arrays
  with O(#dirty) slice assignments and only walks the dicts of the dirty
  rows.  This is the path the mutation-ingest layer
  (:mod:`repro.service.tenancy`) uses to keep per-mutation snapshot cost
  proportional to the mutation batch, not the graph.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np

from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError

Vertex = Hashable

#: Attribute name under which the per-version snapshot is cached on the graph.
_CACHE_ATTR = "_csr_snapshot_cache"


class CSRGraph:
    """An immutable array-backed view of an uncertain graph.

    Instances are created with :meth:`from_uncertain` (cached) or directly
    from prebuilt arrays; they must never be mutated — every consumer (walk
    matrices, filter vectors, engine caches) assumes the arrays are frozen.
    """

    __slots__ = (
        "indptr",
        "indices",
        "probs",
        "graph_id",
        "version",
        "_vertices",
        "_index",
        "sweep_tables",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        probs: np.ndarray,
        vertices: Tuple[Vertex, ...],
        graph_id: "int | None" = None,
        version: "int | None" = None,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.probs = np.ascontiguousarray(probs, dtype=np.float64)
        self._vertices = tuple(vertices)
        if self.indptr.shape != (len(self._vertices) + 1,):
            raise InvalidParameterError(
                f"indptr must have length n+1, got {self.indptr.shape} for n={len(self._vertices)}"
            )
        if self.indices.shape != self.probs.shape:
            raise InvalidParameterError("indices and probs must have the same length")
        self.graph_id = graph_id
        self.version = version
        #: Per-arc tables of the walk kernel, derived from the frozen arrays
        #: and set by the first large sweep (:mod:`repro.core.kernels`).
        self.sweep_tables = None
        self._index: Dict[Vertex, int] = {
            vertex: position for position, vertex in enumerate(self._vertices)
        }

    # -- construction --------------------------------------------------------

    @classmethod
    def from_uncertain(cls, graph: UncertainGraph) -> "CSRGraph":
        """Snapshot ``graph``; cached on the graph keyed by its version."""
        cached = getattr(graph, _CACHE_ATTR, None)
        if cached is not None and cached[0] == graph.version:
            return cached[1]
        snapshot = cls._build(graph)
        setattr(graph, _CACHE_ATTR, (graph.version, snapshot))
        return snapshot

    @classmethod
    def from_uncertain_incremental(
        cls,
        graph: UncertainGraph,
        previous: "CSRGraph",
        dirty_sources: Iterable[Vertex],
        verify: bool = False,
    ) -> "CSRGraph":
        """Snapshot ``graph`` by patching ``previous`` instead of re-freezing.

        ``previous`` must be a snapshot of an earlier state of the *same*
        graph from which the current state differs only by out-adjacency
        changes of ``dirty_sources`` (arcs added, removed or re-weighted) and
        by appended vertices — exactly the mutations a
        :class:`repro.service.tenancy.MutationLog` can express.  Untouched
        adjacency rows are copied wholesale from the previous arrays (one
        slice assignment per contiguous clean run); only dirty and new rows
        walk the graph's dicts.

        With ``verify=True`` the result is cross-checked against a full
        :meth:`from_uncertain` rebuild and a mismatch raises — the
        correctness net for the incremental path, used by the tests and
        available to callers that prefer safety over speed.

        The snapshot is installed in the graph's per-version cache, so a
        subsequent :meth:`from_uncertain` returns it without rebuilding.
        """
        vertices = tuple(graph.vertices())
        prev_n = previous.num_vertices
        if len(vertices) < prev_n or vertices[:prev_n] != previous.vertices:
            raise InvalidParameterError(
                "previous snapshot is not a prefix of the current graph: "
                "incremental rebuild supports arc changes and appended "
                "vertices only (vertices must never be removed or reordered)"
            )
        n = len(vertices)
        new_index = {vertex: prev_n + offset for offset, vertex in enumerate(vertices[prev_n:])}

        def lookup(label: Vertex) -> int:
            position = previous._index.get(label)
            return new_index[label] if position is None else position

        dirty_positions = sorted(
            {
                previous._index[source]
                for source in dirty_sources
                if source in previous._index
            }
        )
        rebuild_positions = dirty_positions + list(range(prev_n, n))

        degrees = np.empty(n, dtype=np.int64)
        degrees[:prev_n] = previous.out_degrees()
        rows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for position in rebuild_positions:
            out_arcs = graph.out_arcs(vertices[position])
            degrees[position] = len(out_arcs)
            rows[position] = (
                np.fromiter(
                    (lookup(neighbor) for neighbor in out_arcs),
                    dtype=np.int64,
                    count=len(out_arcs),
                ),
                np.fromiter(out_arcs.values(), dtype=np.float64, count=len(out_arcs)),
            )

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        probs = np.empty(total, dtype=np.float64)

        # Clean rows keep their relative order, so the gaps between dirty
        # positions are contiguous both in the previous arrays and in the new
        # ones: one slice copy per run.
        run_start = 0
        for boundary in dirty_positions + [prev_n]:
            if boundary > run_start:
                old_lo = previous.indptr[run_start]
                old_hi = previous.indptr[boundary]
                new_lo = indptr[run_start]
                span = old_hi - old_lo
                indices[new_lo : new_lo + span] = previous.indices[old_lo:old_hi]
                probs[new_lo : new_lo + span] = previous.probs[old_lo:old_hi]
            run_start = boundary + 1
        for position in rebuild_positions:
            destinations, probabilities = rows[position]
            lo = indptr[position]
            indices[lo : lo + destinations.size] = destinations
            probs[lo : lo + probabilities.size] = probabilities

        snapshot = cls(
            indptr, indices, probs, vertices,
            graph_id=id(graph), version=graph.version,
        )
        if verify:
            full = cls._build(graph)
            if not (
                snapshot._vertices == full._vertices
                and np.array_equal(snapshot.indptr, full.indptr)
                and np.array_equal(snapshot.indices, full.indices)
                and np.array_equal(snapshot.probs, full.probs)
            ):
                raise RuntimeError(
                    "incremental CSR rebuild diverged from the full rebuild "
                    "(dirty-source set was incomplete?)"
                )
        setattr(graph, _CACHE_ATTR, (graph.version, snapshot))
        return snapshot

    @classmethod
    def _build(cls, graph: UncertainGraph) -> "CSRGraph":
        vertices = tuple(graph.vertices())
        index = {vertex: position for position, vertex in enumerate(vertices)}
        n = len(vertices)
        indptr = np.zeros(n + 1, dtype=np.int64)
        destinations: List[int] = []
        probabilities: List[float] = []
        for position, vertex in enumerate(vertices):
            out_arcs = graph.out_arcs(vertex)
            indptr[position + 1] = indptr[position] + len(out_arcs)
            for neighbor, probability in out_arcs.items():
                destinations.append(index[neighbor])
                probabilities.append(probability)
        return cls(
            indptr,
            np.asarray(destinations, dtype=np.int64),
            np.asarray(probabilities, dtype=np.float64),
            vertices,
            graph_id=id(graph),
            version=graph.version,
        )

    # -- snapshot identity ---------------------------------------------------

    @property
    def snapshot_token(self) -> "Tuple[object, object] | None":
        """Identity of the graph state this snapshot froze.

        ``(graph_id, version)`` — the same token the bundle stores and engine
        caches key their invalidation on — or ``None`` for snapshots built
        directly from arrays, which carry no provenance.  Two snapshots of the same
        :class:`~repro.graph.uncertain_graph.UncertainGraph` at the same
        mutation version share this token, so epoch managers can tag the
        snapshots they pin without holding the source graph.
        """
        if self.graph_id is None or self.version is None:
            return None
        return (self.graph_id, self.version)

    # -- basic queries -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._vertices)

    @property
    def num_arcs(self) -> int:
        """Number of (directed) arcs."""
        return int(self.indices.shape[0])

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """Vertex labels in dense-index order (the graph's insertion order)."""
        return self._vertices

    def index_of(self, vertex: Vertex) -> int:
        """Dense index of a vertex label; raises if absent."""
        try:
            return self._index[vertex]
        except KeyError:
            raise InvalidParameterError(f"vertex {vertex!r} is not in the graph") from None

    def vertex_at(self, position: int) -> Vertex:
        """Vertex label at a dense index."""
        return self._vertices[position]

    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether the label is part of the snapshot."""
        return vertex in self._index

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an ``(n,)`` array."""
        return self.indptr[1:] - self.indptr[:-1]

    def out_slice(self, position: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(destinations, probabilities)`` views of vertex ``position``'s out-arcs."""
        start, stop = self.indptr[position], self.indptr[position + 1]
        return self.indices[start:stop], self.probs[start:stop]

    def arc_sources(self) -> np.ndarray:
        """Source vertex index of every arc (the CSR row of each entry)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degrees())

    # -- dunder --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_arcs})"


class CSRGraphView:
    """Read-only dict-graph facade over a frozen :class:`CSRGraph`.

    The exact algorithms (α factors, single-source transition distributions,
    the scalar reference samplers) are written against the read surface of
    :class:`~repro.graph.uncertain_graph.UncertainGraph` — ``has_vertex`` /
    ``out_neighbors`` / ``out_arcs``.  Serving them from a *pinned* epoch
    snapshot means they must not touch the mutable dict graph at all, so this
    view reconstructs that read surface from the immutable CSR arrays.
    Adjacency rows materialise lazily (one dict per visited vertex, cached),
    in CSR arc order — which is the dict graph's insertion order, so float
    reductions iterate in exactly the same order as on the source graph and
    the exact results stay bit-identical.

    The view is safe to share across reader threads: its cache only ever
    gains deterministically-derived entries.
    """

    __slots__ = ("csr", "_out_arcs")

    def __init__(self, csr: CSRGraph) -> None:
        self.csr = csr
        self._out_arcs: Dict[Vertex, Dict[Vertex, float]] = {}

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the pinned snapshot."""
        return self.csr.num_vertices

    @property
    def num_arcs(self) -> int:
        """Number of arcs of the pinned snapshot."""
        return self.csr.num_arcs

    @property
    def version(self) -> "int | None":
        """Mutation version the snapshot froze (``None`` without provenance)."""
        return self.csr.version

    def vertices(self) -> List[Vertex]:
        """Vertex labels in dense-index (insertion) order."""
        return list(self.csr.vertices)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether the label is part of the snapshot."""
        return self.csr.has_vertex(vertex)

    def out_arcs(self, vertex: Vertex) -> Dict[Vertex, float]:
        """``{neighbor: probability}`` of the vertex's out-arcs (cached).

        The returned dict is owned by the view and must not be mutated.
        """
        row = self._out_arcs.get(vertex)
        if row is None:
            csr = self.csr
            destinations, probabilities = csr.out_slice(csr.index_of(vertex))
            row = {
                csr.vertex_at(int(destination)): float(probability)
                for destination, probability in zip(destinations, probabilities)
            }
            self._out_arcs[vertex] = row
        return row

    def out_neighbors(self, vertex: Vertex) -> List[Vertex]:
        """Out-neighbour labels of a vertex, in arc order."""
        return list(self.out_arcs(vertex))

    def has_arc(self, u: Vertex, v: Vertex) -> bool:
        """Whether the arc ``(u, v)`` exists in the snapshot."""
        return self.has_vertex(u) and v in self.out_arcs(u)

    def __contains__(self, vertex: Vertex) -> bool:
        return self.has_vertex(vertex)

    def __repr__(self) -> str:
        return f"CSRGraphView({self.csr!r})"
