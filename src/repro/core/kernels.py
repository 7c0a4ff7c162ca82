"""The keyed walk sweep kernel.

Every consumer of the serving stack — the service read pool, SR-TS meeting
tails, SR-SP filter builds, the top-k index's lane build — bottoms
out in :func:`repro.core.batch_walks.sample_walk_matrix_keyed`, which runs
the fused :class:`NumpyKernel` (the module-level :data:`KERNEL`).  Its step
loop is fully deterministic: every walk is a pure function of ``(csr,
source, world key)`` under the splitmix64 counter scheme, with each arc's
existence draw keyed by its source vertex and row offset
(:func:`~repro.core.batch_walks.local_arc_keys`) and each step's arc picked
by keyed rejection — up to :data:`~repro.core.batch_walks.TRIES` draws of one
offset from the ``(world key, step, try)`` stream, then a full-row
enumeration for the rows every try missed (the scheme and its exactness
proof are in :mod:`repro.core.batch_walks`).  Any evaluation strategy that
reproduces that scheme bit-for-bit samples the same walks.  The test suite
pins the kernel bit-identical against a plain step-loop oracle.
"""

from __future__ import annotations

import importlib.util
from typing import Dict

import numpy as np

from repro.core.batch_walks import (
    NO_VERTEX,
    TRIES,
    _PICK_SALT,
    _INV_2_53,
    _SPLITMIX_GAMMA,
    _SPLITMIX_M1,
    _SPLITMIX_M2,
    _splitmix64,
    csr_arc_keys,
    local_arc_keys,
)
from repro.graph.csr import CSRGraph
from repro.utils.errors import InvalidParameterError

__all__ = [
    "KERNEL",
    "NUMPY_CHUNK_ROWS",
    "NumpyKernel",
    "resolve_chunk_rows",
]

#: Rows per chunk of a keyed sweep.  A try touches one arc per row, so the
#: per-row working set no longer grows with the degree: one size sits at or
#: near the measured sweet spot on sparse and dense R-MAT graphs alike
#: (chunks of 8k-32k rows within noise of each other; 2,048-row chunks up
#: to ~1.6x slower on dense graphs, where per-step fixed costs dominate).
#: Chunking never changes a walk: each row is a pure function of its world
#: key.
NUMPY_CHUNK_ROWS = 16384

_U11 = np.uint64(11)
_U27 = np.uint64(27)
_U30 = np.uint64(30)
_U31 = np.uint64(31)
_2_53 = float(2.0**53)


# Kept for perfbench, whose run fingerprint records the kernel name.
def default_kernel_name() -> str:
    """The name of the one keyed sweep kernel."""
    return "numpy"


# Kept for perfbench, which records this probe in its run fingerprint.
def numba_available() -> bool:
    """Whether numba can be imported (nothing here uses it)."""
    return importlib.util.find_spec("numba") is not None


# Kept for perfbench, which wraps ``type(resolve_kernel(None)).sample``.
def resolve_kernel(name: None = None) -> "NumpyKernel":
    """The one keyed sweep kernel instance; any ``name`` is rejected."""
    if name is not None:
        raise InvalidParameterError(f"there is one walk kernel; got {name!r}")
    return KERNEL


def resolve_chunk_rows(chunk_rows: "int | None") -> int:
    """The row-chunk size of one keyed sweep."""
    if chunk_rows is None:
        return NUMPY_CHUNK_ROWS
    rows = int(chunk_rows)
    if rows < 1:
        raise InvalidParameterError(f"chunk_rows must be >= 1, got {chunk_rows}")
    return rows


def _splitmix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """In-place SplitMix64 finalizer (same values as ``_splitmix64``)."""
    np.add(z, _SPLITMIX_GAMMA, out=z)
    np.right_shift(z, _U30, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, _SPLITMIX_M1, out=z)
    np.right_shift(z, _U27, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, _SPLITMIX_M2, out=z)
    np.right_shift(z, _U31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


class NumpyKernel:
    """The fused numpy rewrite of the step loop.

    Same chunk structure and identical arithmetic as a plain per-step loop,
    with the per-draw work cut roughly in half:

    * The first splitmix64 of every arc uniform depends only on the arc's
      local key, so ``splitmix64(csr_arc_keys(csr))`` — with the
      existence thresholds and the out-degree array — is computed once per
      snapshot (:func:`_sweep_tables`, kept on the immutable CSR) and
      gathered per draw.  Until a sweep large enough to amortize the table
      comes along, tiny sweeps over a snapshot hash the gathered local keys
      per step instead.  Likewise the first splitmix64 of the pick stream,
      ``splitmix64(world_key ^ salt)``, is hashed once per walk.
    * The existence test compares raw hash bits against precomputed
      pre-shifted integer thresholds ``ceil(p * 2^53) << 11`` — exactly
      equivalent to the float compare ``(h >> 11) * 2^-53 < p`` (both
      sides are exact reals, and for thresholds below ``2^53`` the shift
      commutes with the compare), skipping both the float conversion and
      the shift of every tested arc.
    * All tries of a step are one ``(TRIES, rows)`` block of single-arc
      draws, the first hit per row taken by an ``argmax``, so the per-step
      work follows the rows, not their degrees, in a few large numpy calls;
      only the rows every try missed pay for their whole row.
    * The fallback compresses its rows to their instantiated arcs once (one
      ``flatnonzero``): the row boundaries' insertion points in that list
      give every row's instantiation count and first instantiated entry, so
      the ``(pick + 1)``-th instantiated arc is one gather — no ``reduceat``
      and no per-arc row-id array (per-arc row values are ``repeat``s of
      per-row values).

    ``sample`` takes the inputs that
    :func:`~repro.core.batch_walks.sample_walk_matrix_keyed` validated and
    returns the ``(count, length + 1)`` int64 walk matrix.
    """

    def sample(
        self,
        csr: CSRGraph,
        sources: np.ndarray,
        length: int,
        world_keys: np.ndarray,
        chunk_rows: "int | None" = None,
        first_steps: "np.ndarray | None" = None,
    ) -> np.ndarray:
        rows = resolve_chunk_rows(chunk_rows)
        count = sources.shape[0]
        walks = np.full((count, length + 1), NO_VERTEX, dtype=np.int64)
        if first_steps is None:
            walks[:, 0] = sources
        else:
            walks[np.arange(count), first_steps] = sources
        if count == 0 or length == 0:
            return walks
        # The snapshot's hoisted tables, built by the first sweep that
        # touches enough arcs to amortize the passes over the arc arrays;
        # tiny sweeps over a huge snapshot hash gathered local keys instead.
        tables = csr.sweep_tables
        expected_arc_work = count * length * (csr.num_arcs / max(1, csr.num_vertices))
        if tables is None and csr.num_arcs and expected_arc_work >= csr.num_arcs:
            tables = _sweep_tables(csr)
        if tables is None:
            degree, arc_mix, thr, thr_shifted = np.diff(csr.indptr), None, None, False
        else:
            degree, arc_mix, thr, thr_shifted = tables
        for start in range(0, count, rows):
            stop = min(start + rows, count)
            _fused_chunk(
                csr,
                degree,
                arc_mix,
                thr,
                thr_shifted,
                sources[start:stop],
                length,
                world_keys[start:stop],
                None if first_steps is None else first_steps[start:stop],
                walks[start:stop],
            )
        return walks


def _sweep_tables(csr: CSRGraph) -> tuple:
    """``(degree, arc_mix, thr, thr_shifted)`` of one snapshot, built once.

    ``arc_mix`` is the first splitmix64 of every arc's local key and ``thr``
    its existence threshold ``ceil(p * 2^53)``; when every threshold is below
    2^53 (no certain arcs) the shift onto the hash's high bits is folded into
    ``thr`` too.  Derived only from the frozen arrays, so the tables are kept
    on the snapshot and shared by every later sweep over it (a race between
    two first sweeps builds identical tables twice).
    """
    thr = np.ceil(csr.probs * _2_53).astype(np.uint64)
    thr_shifted = int(thr.max()) < (1 << 53)
    if thr_shifted:
        thr <<= _U11
    tables = (np.diff(csr.indptr), _splitmix64(csr_arc_keys(csr)), thr, thr_shifted)
    csr.sweep_tables = tables
    return tables


def _fused_chunk(
    csr: CSRGraph,
    degree: np.ndarray,
    arc_mix: "np.ndarray | None",
    thr: "np.ndarray | None",
    thr_shifted: bool,
    sources: np.ndarray,
    length: int,
    world_keys: np.ndarray,
    first_steps: "np.ndarray | None",
    walks: np.ndarray,
) -> None:
    """Run the fused step loop over one chunk, writing into ``walks``.

    A row with ``first_steps[r] = t`` stands on its source at step ``t`` and
    joins the live set there, so its pick uniforms are those of steps
    ``t, t + 1, …`` — exactly the suffix of the walk that reached the source
    at step ``t``.
    """
    indptr = csr.indptr
    # Live-walk state, compacted every step: original row ids (for writing
    # into ``walks``), current vertices, world keys, and the hoisted first
    # half of the pick-uniform hash (``splitmix64(key ^ salt)`` is
    # independent of the step and the try; a plain step loop recomputes it
    # for every draw).
    pick_all = _splitmix64(world_keys ^ _PICK_SALT)
    joining: Dict[int, np.ndarray] = {}
    if first_steps is None:
        rowid = np.arange(sources.shape[0])
        current = sources.astype(np.int64, copy=True)
        keys, pick_base = world_keys, pick_all
    else:
        rowid = np.flatnonzero(first_steps == 0)
        current = sources[rowid].astype(np.int64)
        keys, pick_base = world_keys[rowid], pick_all[rowid]
        for first in np.unique(first_steps[first_steps > 0]).tolist():
            joining[first] = np.flatnonzero(first_steps == first)
    last_join = max(joining, default=0)
    for step in range(length):
        late = joining.get(step)
        if late is not None:
            rowid = np.concatenate((rowid, late))
            current = np.concatenate((current, sources[late]))
            keys = np.concatenate((keys, world_keys[late]))
            pick_base = np.concatenate((pick_base, pick_all[late]))
        degrees = degree[current]
        if not degrees.all():
            has_out = np.flatnonzero(degrees)
            rowid = rowid[has_out]
            current = current[has_out]
            keys = keys[has_out]
            pick_base = pick_base[has_out]
            degrees = degrees[has_out]
        if rowid.size == 0:
            if step >= last_join:
                break
            continue
        chosen = _step_arcs(
            csr, arc_mix, thr, thr_shifted, current, indptr[current], degrees, keys,
            pick_base, step,
        )
        if chosen.min() < 0:
            alive = np.flatnonzero(chosen >= 0)
            rowid = rowid[alive]
            keys = keys[alive]
            pick_base = pick_base[alive]
            chosen = chosen[alive]
        current = csr.indices[chosen]
        walks[rowid, step + 1] = current


def _pick_draw(pick_base: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The ``[0, 1)`` pick uniforms of ``counters``, from the hoisted hash.

    ``counters`` (``step * (TRIES + 1) + try + 1``) broadcast against
    ``pick_base``.
    """
    mixed = pick_base + counters
    _splitmix64_inplace(mixed, np.empty_like(mixed))
    np.right_shift(mixed, _U11, out=mixed)
    uniforms = mixed.astype(np.float64)
    uniforms *= _INV_2_53
    return uniforms


def _arcs_exist(
    csr: CSRGraph,
    arc_mix: "np.ndarray | None",
    thr: "np.ndarray | None",
    thr_shifted: bool,
    arcs: np.ndarray,
    keys: np.ndarray,
    vertices: "np.ndarray | None",
    offsets: "np.ndarray | None",
) -> np.ndarray:
    """Whether each arc exists in its walk's world (the existence stream).

    ``vertices`` and ``offsets`` (the arcs' local keys) are read only when
    the snapshot has no hoisted tables yet.
    """
    if arc_mix is not None:
        hash_ = arc_mix[arcs]
    else:
        hash_ = local_arc_keys(vertices, offsets)
        _splitmix64_inplace(hash_, np.empty_like(hash_))
    hash_ ^= keys
    _splitmix64_inplace(hash_, np.empty_like(hash_))
    if thr is not None:
        if not thr_shifted:
            np.right_shift(hash_, _U11, out=hash_)
        return hash_ < thr[arcs]
    np.right_shift(hash_, _U11, out=hash_)
    uniforms = hash_.astype(np.float64)
    uniforms *= _INV_2_53
    return uniforms < csr.probs[arcs]


def _step_arcs(
    csr: CSRGraph,
    arc_mix: "np.ndarray | None",
    thr: "np.ndarray | None",
    thr_shifted: bool,
    current: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
    keys: np.ndarray,
    pick_base: np.ndarray,
    step: int,
) -> np.ndarray:
    """The arc each live row takes at ``step``, or -1 where the walk dies.

    Keyed rejection: try ``t`` tests the arc at offset ``floor(u(key, step,
    t) * degree)`` and the first that exists is taken.  Rows every try
    missed enumerate their whole row under the try-``TRIES`` uniform.
    Evaluating every try of a row, not only those up to its first hit,
    reads more hashes but never changes which arc is taken.
    """
    counter = step * (TRIES + 1) + 1
    # Every try of every row in one (TRIES, rows) block: fewer, larger numpy
    # calls than a compacting loop over the tries, which small sweeps (a
    # bundle repair, a few pairs) would spend in per-call overhead.
    tries = np.arange(counter, counter + TRIES, dtype=np.uint64)[:, None]
    uniforms = _pick_draw(pick_base, tries)
    uniforms *= degrees
    offsets = uniforms.astype(np.int64)
    arcs = offsets + starts
    hit = _arcs_exist(csr, arc_mix, thr, thr_shifted, arcs, keys, current, offsets)
    first = hit.argmax(axis=0)
    rows = np.arange(current.size)
    chosen = np.where(hit[first, rows], arcs[first, rows], -1)
    rows = np.flatnonzero(chosen < 0)
    if rows.size == 0:
        return chosen
    starts, degrees, keys = starts[rows], degrees[rows], keys[rows]
    pick_base = pick_base[rows]
    if arc_mix is None:
        current = current[rows]

    # The fallback, in the ragged flat layout: per-arc row values are
    # ``repeat``s of per-row values (rows are contiguous in the flat layout),
    # never gathers through a row-id array.  Arc ids stay int64: fancy
    # gathers with signed indices are ~3x faster than with uint64 indices.
    row_starts = np.empty(rows.size + 1, dtype=np.int64)
    row_starts[0] = 0
    np.cumsum(degrees, out=row_starts[1:])
    flat = np.arange(int(row_starts[-1]))
    arcs = np.repeat(starts - row_starts[:-1], degrees) + flat
    if arc_mix is None:
        vertices = np.repeat(current, degrees)
        offsets = flat - np.repeat(row_starts[:-1], degrees)
    else:
        vertices = offsets = None
    exists = _arcs_exist(
        csr, arc_mix, thr, thr_shifted, arcs, np.repeat(keys, degrees), vertices,
        offsets,
    )
    # Compress to the instantiated arcs once: ``set_pos`` lists them in row
    # order, so the row boundaries' insertion points in it give each row's
    # first instantiated entry and the instantiation counts (their
    # differences), and the ``(pick + 1)``-th instantiated arc of row ``r``
    # is simply ``set_pos[row_base[r] + pick]``.
    set_pos = np.flatnonzero(exists)
    bounds = np.searchsorted(set_pos, row_starts)
    row_base = bounds[:-1]
    instantiated = bounds[1:] - row_base
    alive = instantiated > 0
    picks = _pick_draw(pick_base, np.uint64(counter + TRIES))
    picks = (picks * instantiated).astype(np.int64)
    chosen[rows[alive]] = arcs[set_pos[(row_base + picks)[alive]]]
    return chosen


#: The process-wide kernel instance every keyed sweep runs through.
KERNEL = NumpyKernel()
