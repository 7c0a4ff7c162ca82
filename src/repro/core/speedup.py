"""The SR-SP speed-up technique (Section VI-D): shared sampling via bit vectors.

Instead of extending ``N`` sampled walks one by one, the speed-up technique
runs all ``N`` sampling processes simultaneously:

* every arc ``e = (w, x)`` carries a *filter vector* ``F_e`` of ``N`` bits —
  bit ``i`` is set when, in sampling process ``i``, the walk standing at ``w``
  would move to ``x`` (the out-arcs of ``w`` are instantiated once per
  process, and one instantiated arc is chosen uniformly);
* every vertex ``w`` carries a *counting table* ``M_w`` — ``M_w[k]`` is an
  ``N``-bit vector whose bit ``i`` is set when ``w`` is the ``k``-th vertex of
  the ``i``-th sampled walk.

One breadth-first propagation per endpoint then replaces ``N`` independent
walk extensions: ``M_x[k+1] |= M_w[k] & F_(w,x)``.  The meeting-probability
estimate (Eq. 16) is the popcount of ``M_w[k] & M'_w[k]`` summed over the
vertices reachable at step ``k`` from both endpoints.

Fidelity note: the paper builds one set of filter vectors and reuses it for
both endpoints, which correlates the two walk bundles of a query (the same
process index walks the same possible world from both sides).  The SR-SP
executor therefore draws an independent filter set per endpoint side, so the
estimator keeps the Sampling algorithm's independence assumption;
``shared_filters=True`` restores the paper's exact behaviour.

The filter construction and the online propagation both run on the
:class:`~repro.graph.csr.CSRGraph` snapshot of the graph.  The filter bits
live in one ``(num_arcs, words)`` uint64 matrix.  The executor's
propagation (:func:`propagate_packed_tables`) is *frontier-sparse*, in the
manner of the bit-parallel fingerprints of Fogaras & Rácz (WWW 2005): a
step touches only the out-arcs of the vertices some walk stands on, so
its cost follows the frontier rather than the graph, and each step keeps
only ``(active vertices, words)`` in a :class:`PackedTables`.
:func:`packed_meeting_probabilities` popcounts only the vertices active on
both sides.  The SR-SP executor caches each endpoint's tables per graph
snapshot in :attr:`repro.core.executors.EngineCaches.speedup_tables`, a
byte-budgeted LRU that is retired with its snapshot.  The per-vertex
:class:`BitVector` form (:meth:`FilterVectors.get`,
:func:`propagate_counting_tables`, :func:`meeting_probabilities_from_tables`)
is a direct transcription of the paper's definitions over the *same* bits,
kept as the test oracle the packed path must match exactly.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.bitvector import BitVector, popcount_words
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import RandomState, ensure_rng

Vertex = Hashable
Arc = Tuple[Vertex, Vertex]


def _pack_bool_rows(flags: np.ndarray, words: int) -> np.ndarray:
    """Pack a ``(rows, bits)`` boolean matrix into ``(rows, words)`` uint64.

    Bit layout matches :meth:`BitVector.from_bool_array` (little bit order),
    so the packed words and the BitVector views of the same flags agree.
    """
    packed_bytes = np.packbits(flags, axis=1, bitorder="little")
    padded = np.zeros((flags.shape[0], words * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view(np.uint64)


class FilterVectors:
    """Per-arc filter vectors for ``num_processes`` simultaneous samples.

    Construction is the "offline" step of the paper: for every vertex and
    every sampling process, the out-arcs are instantiated independently with
    their existence probabilities and one instantiated arc is chosen uniformly
    at random.  Bit ``i`` of the filter vector of arc ``(w, x)`` records that
    process ``i`` chose to move from ``w`` to ``x``.

    The whole construction is one batch of vectorised draws over the CSR arc
    arrays: existence is an ``(num_arcs, N)`` Bernoulli matrix, and the
    uniform choice per (vertex, process) is resolved with a segmented
    cumulative-count trick instead of per-vertex Python loops.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        num_processes: int,
        rng: RandomState = None,
        csr: CSRGraph | None = None,
    ):
        if num_processes < 1:
            raise InvalidParameterError(
                f"num_processes must be >= 1, got {num_processes}"
            )
        self._graph = graph
        # An explicit csr pins the filters to that exact snapshot — required
        # when building from an epoch-pinned EngineCaches whose dict graph
        # may already have moved on.
        self._csr = csr if csr is not None else CSRGraph.from_uncertain(graph)
        self._num_processes = num_processes
        self._words = (num_processes + 63) // 64
        self._filters: Dict[Arc, BitVector] = {}
        self._arc_position: Dict[Arc, int] | None = None
        self._packed = np.zeros((self._csr.num_arcs, self._words), dtype=np.uint64)
        self._num_nonzero = 0
        self._build(ensure_rng(rng))

    #: Cap on the size of the dense (processes × arcs) temporaries of one
    #: build chunk (~128 MB of float64); keeps peak memory bounded on large
    #: graphs.  Chunks are multiples of 64 so each packs into disjoint words.
    _BUILD_CHUNK_CELLS = 1 << 24

    def _build(self, rng: np.random.Generator) -> None:
        csr = self._csr
        arcs, n = csr.num_arcs, self._num_processes
        if arcs == 0:
            return
        degrees = csr.out_degrees()
        nonempty = degrees > 0
        starts = csr.indptr[:-1][nonempty]
        segment_of_arc = np.repeat(np.arange(starts.size), degrees[nonempty])
        chunk = max(64, (self._BUILD_CHUNK_CELLS // arcs) // 64 * 64)
        any_chosen = np.zeros(arcs, dtype=bool)
        for first in range(0, n, chunk):
            block = min(chunk, n - first)
            chosen = self._build_block(rng, block, starts, segment_of_arc)
            word = first // 64
            packed = _pack_bool_rows(np.ascontiguousarray(chosen.T), (block + 63) // 64)
            self._packed[:, word : word + packed.shape[1]] = packed
            any_chosen |= chosen.any(axis=0)
        self._num_nonzero = int(any_chosen.sum())

    def _build_block(
        self,
        rng: np.random.Generator,
        block: int,
        starts: np.ndarray,
        segment_of_arc: np.ndarray,
    ) -> np.ndarray:
        """Sample the filter bits of ``block`` processes over every arc.

        Process-major layout: all segmented ops run along the contiguous arc
        axis, with one CSR segment per vertex's out-arc slice.
        """
        csr = self._csr
        exists = rng.random((block, csr.num_arcs)) < csr.probs[None, :]
        # k = number of instantiated out-arcs per (vertex, process); pick one
        # uniformly and locate it by its within-segment running count.
        exists_counts = exists.astype(np.int64)
        counts = np.add.reduceat(exists_counts, starts, axis=1)
        picks = (rng.random(counts.shape) * counts).astype(np.int64)
        cumulative = exists_counts.cumsum(axis=1)
        segment_base = cumulative[:, starts] - exists_counts[:, starts]
        within = cumulative - segment_base[:, segment_of_arc]
        return exists & (within == picks[:, segment_of_arc] + 1)

    @property
    def num_processes(self) -> int:
        """Number of simultaneous sampling processes encoded in each vector."""
        return self._num_processes

    @property
    def graph(self) -> UncertainGraph:
        """The graph the filter vectors were built for."""
        return self._graph

    @property
    def csr(self) -> CSRGraph:
        """The frozen snapshot the filters were sampled on."""
        return self._csr

    @property
    def packed(self) -> np.ndarray:
        """``(num_arcs, words)`` uint64 filter bits in CSR arc order."""
        return self._packed

    def ones_mask(self) -> np.ndarray:
        """Packed all-ones vector over the ``num_processes`` bits."""
        return _pack_bool_rows(
            np.ones((1, self._num_processes), dtype=bool), self._words
        )[0]

    def get(self, u: Vertex, v: Vertex) -> BitVector:
        """Filter vector of arc ``(u, v)`` (all-zero if no process chose it).

        BitVector views are materialised lazily from the packed words; the
        offline build itself stays pure-array.
        """
        cached = self._filters.get((u, v))
        if cached is not None:
            return cached
        if self._arc_position is None:
            csr = self._csr
            sources = csr.arc_sources()
            self._arc_position = {
                (csr.vertex_at(int(sources[arc])), csr.vertex_at(int(csr.indices[arc]))): arc
                for arc in range(csr.num_arcs)
            }
        position = self._arc_position.get((u, v))
        if position is None:
            return BitVector.zeros(self._num_processes)
        bits = int.from_bytes(self._packed[position].tobytes(), "little")
        vector = BitVector(self._num_processes, bits)
        self._filters[(u, v)] = vector
        return vector

    def __len__(self) -> int:
        return self._num_nonzero


CountingTables = List[Dict[Vertex, BitVector]]


def propagate_counting_tables(
    graph: UncertainGraph,
    source: Vertex,
    steps: int,
    filters: FilterVectors,
) -> CountingTables:
    """Propagate the counting tables of ``source`` for ``steps`` steps.

    Returns ``tables`` with ``tables[k][w]`` the bit vector recording in which
    sampling processes ``w`` is the ``k``-th vertex of the walk from
    ``source`` (vertices with an all-zero vector omitted).  ``tables[0]`` maps
    ``source`` to the all-ones vector.
    """
    if not graph.has_vertex(source):
        raise InvalidParameterError(f"source vertex {source!r} is not in the graph")
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    n = filters.num_processes
    tables: CountingTables = [{source: BitVector.ones(n)}]
    for _ in range(steps):
        current = tables[-1]
        next_table: Dict[Vertex, BitVector] = {}
        for vertex, mask in current.items():
            for neighbor in graph.out_neighbors(vertex):
                arc_filter = filters.get(vertex, neighbor)
                if arc_filter.is_zero():
                    continue
                moved = mask & arc_filter
                if moved.is_zero():
                    continue
                if neighbor in next_table:
                    next_table[neighbor] = next_table[neighbor] | moved
                else:
                    next_table[neighbor] = moved
        tables.append(next_table)
    return tables


def meeting_probabilities_from_tables(
    tables_u: CountingTables,
    tables_v: CountingTables,
    num_processes: int,
    u: Vertex,
    v: Vertex,
) -> List[float]:
    """Eq. 16: estimate ``m(k)`` from two endpoints' counting tables."""
    if len(tables_u) != len(tables_v):
        raise InvalidParameterError("counting tables must cover the same number of steps")
    meeting = [1.0 if u == v else 0.0]
    for k in range(1, len(tables_u)):
        table_u, table_v = tables_u[k], tables_v[k]
        smaller, larger = (table_u, table_v) if len(table_u) <= len(table_v) else (table_v, table_u)
        hits = 0
        for vertex, mask in smaller.items():
            other = larger.get(vertex)
            if other is not None:
                hits += (mask & other).count()
        meeting.append(hits / num_processes)
    return meeting


class PackedTables:
    """Frontier-sparse counting tables of one source, in packed words.

    ``steps[k]`` is ``(active, rows)``: the sorted indices of the vertices
    that are the ``k``-th vertex of at least one sampled walk, and the
    ``(len(active), words)`` uint64 block of their counting-table bits (no
    all-zero rows).  Both arrays are read-only, so one instance can be
    cached and shared by concurrent readers; :attr:`nbytes` sizes it for a
    byte-budgeted store.
    """

    __slots__ = ("steps", "nbytes")

    def __init__(self, steps: List[Tuple[np.ndarray, np.ndarray]]) -> None:
        for active, rows in steps:
            active.flags.writeable = False
            rows.flags.writeable = False
        self.steps: Tuple[Tuple[np.ndarray, np.ndarray], ...] = tuple(steps)
        self.nbytes = sum(active.nbytes + rows.nbytes for active, rows in steps)

    def __len__(self) -> int:
        return len(self.steps)


def propagate_packed_tables(
    source: Vertex,
    steps: int,
    filters: FilterVectors,
) -> PackedTables:
    """Array form of :func:`propagate_counting_tables` on packed filter words.

    Only the live frontier is propagated: each step gathers the CSR arcs out
    of the active rows, ANDs their source rows with the packed filter bits,
    drops the all-zero contributions, and ORs the rest grouped by
    destination (a sort plus one ``reduceat``).  The cost of a step
    follows the frontier's out-arcs, not the graph, and a frontier that dies
    leaves empty steps.
    """
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    csr = filters.csr
    if not csr.has_vertex(source):
        raise InvalidParameterError(f"source vertex {source!r} is not in the graph")
    indptr, indices, packed = csr.indptr, csr.indices, filters.packed
    active = np.array([csr.index_of(source)], dtype=np.int64)
    rows = filters.ones_mask()[None, :]
    tables = [(active, rows)]
    for _ in range(steps):
        starts = indptr[active]
        counts = indptr[active + 1] - starts
        row_of_arc = np.repeat(np.arange(active.size), counts)
        # Arc ids of the active rows' out-slices, concatenated in row order.
        offsets = np.cumsum(counts) - counts
        arcs = np.arange(row_of_arc.size) + np.repeat(starts - offsets, counts)
        moved = rows[row_of_arc] & packed[arcs]
        live = np.flatnonzero(np.bitwise_or.reduce(moved, axis=1))
        # The sort only groups arcs by destination and OR is order-free, so
        # the (several times faster) unstable sort yields the same bits.
        order = np.argsort(indices[arcs[live]])
        live = live[order]
        targets = indices[arcs[live]]
        firsts = np.flatnonzero(np.diff(targets, prepend=-1))
        active = targets[firsts]
        rows = (
            np.bitwise_or.reduceat(moved[live], firsts, axis=0)
            if firsts.size
            else np.empty((0, packed.shape[1]), dtype=np.uint64)
        )
        tables.append((active, rows))
    return PackedTables(tables)


def packed_meeting_probabilities(
    tables_u: PackedTables,
    tables_v: PackedTables,
    num_processes: int,
    u: Vertex,
    v: Vertex,
) -> List[float]:
    """Eq. 16 on packed counting tables: popcount of the per-vertex ANDs.

    Per step only the vertices active on both sides can contribute, so the
    AND and the popcount run over the intersection of the two active sets.
    """
    if len(tables_u) != len(tables_v):
        raise InvalidParameterError("counting tables must cover the same number of steps")
    meeting = [1.0 if u == v else 0.0]
    for (active_u, rows_u), (active_v, rows_v) in zip(tables_u.steps[1:], tables_v.steps[1:]):
        _, at_u, at_v = np.intersect1d(
            active_u, active_v, assume_unique=True, return_indices=True
        )
        hits = int(popcount_words(rows_u[at_u] & rows_v[at_v]).sum(dtype=np.int64))
        meeting.append(hits / num_processes)
    return meeting
