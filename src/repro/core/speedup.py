"""The SR-SP speed-up technique (Section VI-D): shared sampling over filters.

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

Each process picks at most one out-arc per vertex, so the filter vectors of
a vertex's out-arcs are one row of a ``(num_vertices, N)`` *choice table*
(:attr:`FilterVectors.choices`): where process ``i`` moves from ``w``.  That
table is all the offline build (on the :class:`~repro.graph.csr.CSRGraph`
snapshot) produces.  A process then stands on exactly one vertex per step,
so an endpoint's counting tables are its ``N`` position *lanes*
(:func:`propagate_lanes`): an ``(N, steps + 1)`` array in the walk bundles'
own layout, one ``choices`` gather per step over the live processes — the
bit-parallel fingerprints of Fogaras & Rácz (WWW 2005) evaluated process by
process.  Eq. 16's popcount is then the number of processes that stand on
the same vertex on both sides, which is how the SR-SP executor scores the
lanes: through the walk-bundle meeting functions of
:mod:`repro.core.batch_walks`, with the same hit counts and the same
``hits / N`` division.  The executor caches each endpoint side's lanes per
graph snapshot in :attr:`repro.core.executors.EngineCaches.speedup_tables`.
The paper's per-vertex bit-vector form over the same choices is kept in the
test suite as the oracle the lanes must match exactly.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.batch_walks import NO_VERTEX, bundle_dtype
from repro.graph.csr import CSRGraph
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import RandomState, ensure_rng

Vertex = Hashable


class FilterVectors:
    """Per-arc filter vectors for ``num_processes`` simultaneous samples.

    Construction is the "offline" step of the paper: for every vertex and
    every sampling process, the out-arcs are instantiated independently with
    their existence probabilities and one instantiated arc is chosen uniformly
    at random.  Bit ``i`` of the filter vector of arc ``(w, x)`` records that
    process ``i`` chose to move from ``w`` to ``x``; the build keeps those
    bits as the choice table :attr:`choices`.

    The whole construction is a few batches of vectorised draws over the CSR
    arc arrays: existence is a ``(processes, num_arcs)`` Bernoulli matrix,
    and the uniform pick per (vertex, process) is located among the existing
    arcs without per-vertex Python loops.
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
        self._choices = np.full(
            (self._csr.num_vertices, num_processes), NO_VERTEX,
            dtype=bundle_dtype(self._csr.num_vertices),
        )
        self._num_nonzero: int | None = None
        self._build(ensure_rng(rng))
        self._choices.flags.writeable = False

    #: Cap on the size of the dense (processes × arcs) temporaries of one
    #: build chunk (~128 MB of float64); keeps peak memory bounded on large
    #: graphs.  Chunks are multiples of 64 processes.  The chunking fixes
    #: the shapes, and so the order, of the RNG draws: changing it moves
    #: every SR-SP answer.
    _BUILD_CHUNK_CELLS = 1 << 24

    def _build(self, rng: np.random.Generator) -> None:
        csr = self._csr
        arcs, n = csr.num_arcs, self._num_processes
        if arcs == 0:
            return
        degrees = csr.out_degrees()
        nonempty = np.flatnonzero(degrees > 0)
        starts = csr.indptr[:-1][nonempty]
        chunk = max(64, (self._BUILD_CHUNK_CELLS // arcs) // 64 * 64)
        for first in range(0, n, chunk):
            block = min(chunk, n - first)
            exists = rng.random((block, arcs)) < csr.probs[None, :]
            # k = number of instantiated out-arcs per (process, vertex); the
            # pick is uniform in [0, k).
            counts = np.add.reduceat(
                exists.view(np.uint8), starts, axis=1, dtype=np.int32
            )
            picks = (rng.random(counts.shape) * counts).astype(np.int64)
            # The existing cells in row-major order: a (process, vertex)
            # cell's instantiated arcs are one run, after those of every
            # earlier cell, so its pick is an offset into that run.
            existing = np.flatnonzero(exists)
            flat_counts = counts.ravel()
            runs = np.cumsum(flat_counts) - flat_counts
            cells = np.flatnonzero(flat_counts)
            chosen = existing[runs[cells] + picks.ravel()[cells]]
            processes, segments = np.divmod(cells, counts.shape[1])
            self._choices[nonempty[segments], first + processes] = csr.indices[
                chosen - processes * arcs
            ]

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
    def choices(self) -> np.ndarray:
        """``(num_vertices, num_processes)`` table of where each process moves.

        Entry ``[w, i]`` is the destination index of the one out-arc of ``w``
        whose filter bit ``i`` is set — the build picks at most one arc per
        vertex and process — or :data:`~repro.core.batch_walks.NO_VERTEX`
        when process ``i`` instantiated none there.  Entries are in the walk
        bundles' compact dtype (:func:`~repro.core.batch_walks.bundle_dtype`);
        the array is read-only.
        """
        return self._choices

    def __len__(self) -> int:
        """Number of arcs whose filter vector is not all-zero."""
        if self._num_nonzero is None:
            vertices, processes = np.nonzero(self._choices >= 0)
            arcs = vertices.astype(np.int64) * self._csr.num_vertices
            arcs += self._choices[vertices, processes]
            self._num_nonzero = int(np.unique(arcs).size)
        return self._num_nonzero


def propagate_lanes(source: Vertex, steps: int, filters: FilterVectors) -> np.ndarray:
    """Where each of the ``N`` processes from ``source`` stands, step by step.

    Returns a read-only ``(N, steps + 1)`` array in the walk bundles' layout
    and dtype: row ``i`` is process ``i``'s walk, column 0 is ``source`` and
    :data:`~repro.core.batch_walks.NO_VERTEX` marks a process that has died.
    Vertex ``w`` is in row ``i`` at column ``k`` exactly when bit ``i`` of
    the counting table ``M_w[k]`` is set.  Each step is one gather through
    :attr:`FilterVectors.choices` over the processes still alive, so its
    cost follows the live processes, not the graph.
    """
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    csr = filters.csr
    if not csr.has_vertex(source):
        raise InvalidParameterError(f"source vertex {source!r} is not in the graph")
    choices = filters.choices
    lanes = np.full((filters.num_processes, steps + 1), NO_VERTEX, dtype=choices.dtype)
    lanes[:, 0] = csr.index_of(source)
    live = np.arange(filters.num_processes)
    position = lanes[:, 0]
    for step in range(1, steps + 1):
        position = choices[position, live]
        moved = position != NO_VERTEX
        live, position = live[moved], position[moved]
        if not live.size:
            break
        lanes[live, step] = position
    lanes.flags.writeable = False
    return lanes
