"""Test oracles of SR-SP: the cumulative-count filter build and the bit vectors.

Nothing in the library runs these.  :func:`oracle_choices` is the original
filter build, which located each (process, vertex) pick by a running count
over the arcs; :class:`~repro.core.speedup.FilterVectors` must draw the same
choice table from the same RNG stream.  :func:`filter_vector`,
:func:`propagate_counting_tables` and :func:`meeting_probabilities_from_tables`
are a direct transcription of the paper's bit-vector definitions (Section
VI-D, Eq. 16) over a filter set's choices; the SR-SP lanes and the executor
must match them bit for bit.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

import numpy as np

from repro.core.speedup import FilterVectors
from repro.graph.csr import CSRGraph
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.bitvector import BitVector
from repro.utils.errors import InvalidParameterError

Vertex = Hashable
CountingTables = List[Dict[Vertex, BitVector]]


def _build_block(
    csr: CSRGraph,
    rng: np.random.Generator,
    block: int,
    starts: np.ndarray,
    segment_of_arc: np.ndarray,
) -> np.ndarray:
    """The ``(block, num_arcs)`` chosen-arc flags of ``block`` processes."""
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


def oracle_choices(
    csr: CSRGraph, num_processes: int, rng: np.random.Generator
) -> np.ndarray:
    """The ``(num_vertices, num_processes)`` choice table, by running counts.

    Blocks follow :attr:`FilterVectors._BUILD_CHUNK_CELLS` as read at call
    time, so a test that shrinks it splits both builds alike.
    """
    choices = np.full((csr.num_vertices, num_processes), -1, dtype=np.int64)
    arcs = csr.num_arcs
    if arcs == 0:
        return choices
    degrees = csr.out_degrees()
    nonempty = degrees > 0
    starts = csr.indptr[:-1][nonempty]
    segment_of_arc = np.repeat(np.arange(starts.size), degrees[nonempty])
    sources = csr.arc_sources()
    chunk = max(64, (FilterVectors._BUILD_CHUNK_CELLS // arcs) // 64 * 64)
    for first in range(0, num_processes, chunk):
        block = min(chunk, num_processes - first)
        chosen = _build_block(csr, rng, block, starts, segment_of_arc)
        processes, chosen_arcs = np.nonzero(chosen)
        choices[sources[chosen_arcs], first + processes] = csr.indices[chosen_arcs]
    return choices


def filter_vector(filters: FilterVectors, u: Vertex, v: Vertex) -> BitVector:
    """``F_(u, v)``: bit ``i`` set iff process ``i`` moves from ``u`` to ``v``.

    All-zero when ``(u, v)`` is not an arc that some process chose.
    """
    csr = filters.csr
    if not (csr.has_vertex(u) and csr.has_vertex(v)):
        return BitVector.zeros(filters.num_processes)
    return BitVector.from_bool_array(filters.choices[csr.index_of(u)] == csr.index_of(v))


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
        next_table: Dict[Vertex, BitVector] = {}
        for vertex, mask in tables[-1].items():
            for neighbor in graph.out_neighbors(vertex):
                moved = mask & filter_vector(filters, vertex, neighbor)
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
    for table_u, table_v in zip(tables_u[1:], tables_v[1:]):
        hits = 0
        for vertex, mask in table_u.items():
            other = table_v.get(vertex)
            if other is not None:
                hits += (mask & other).count()
        meeting.append(hits / num_processes)
    return meeting


def oracle_meetings(graph, u: Vertex, v: Vertex, steps: int, filters_u, filters_v):
    """Eq. 16 for one pair, each side propagated over its own filter set."""
    return meeting_probabilities_from_tables(
        propagate_counting_tables(graph, u, steps, filters_u),
        propagate_counting_tables(graph, v, steps, filters_v),
        filters_u.num_processes,
        u,
        v,
    )
