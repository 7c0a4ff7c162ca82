"""The keyed walk sweep kernel.

Every consumer of the serving stack — the service read pool, SR-TS meeting
tails, SR-SP filter builds, the top-k index's lane build — bottoms
out in :func:`repro.core.batch_walks.sample_walk_matrix_keyed`, which runs
the fused :class:`NumpyKernel` (the module-level :data:`KERNEL`).  Its step
loop is fully deterministic: every walk is a pure function of ``(csr,
source, world key)`` under the splitmix64 counter scheme, with each arc's
existence draw keyed by its source vertex and row offset
(:func:`~repro.core.batch_walks.local_arc_keys`), so any evaluation strategy
that reproduces that scheme bit-for-bit samples the same walks.  The test
suite pins the kernel bit-identical against a plain step-loop oracle.
"""

from __future__ import annotations

import importlib.util
import threading
from typing import Dict

import numpy as np

from repro.core.batch_walks import (
    NO_VERTEX,
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
    "DENSE_MAX_COLS",
    "DENSE_MAX_WASTE",
    "KERNEL",
    "NUMPY_CHUNK_MAX_ROWS",
    "NUMPY_CHUNK_MIN_ROWS",
    "NumpyKernel",
    "resolve_chunk_rows",
]

#: Degree bound of the fused numpy kernel's dense fast path: rows whose
#: current vertex has at most this many out-arcs are evaluated as a padded
#: ``(rows, max_deg)`` gather (2-d vectorized ops, no ragged bookkeeping);
#: heavier rows take the fused ragged path.  A performance knob only —
#: every split of rows between the two paths samples identical walks.
DENSE_MAX_COLS = 8

#: Padding-waste bound of the dense fast path: the padded ``rows * cols``
#: matrix may be at most this many times larger than the real arc count of
#: the rows it covers, otherwise the step stays ragged (the padded lanes
#: would cost more than the ragged bookkeeping they avoid).  Performance
#: knob only, like :data:`DENSE_MAX_COLS`.
DENSE_MAX_WASTE = 1.5

#: Row-chunk bounds and per-chunk budget of the fused numpy kernel.  Its
#: per-row working set is a fraction of a plain step loop's (scratch
#: reuse, fewer temporaries), so sparse graphs want far larger chunks that
#: amortize the per-step fixed costs over more rows, while dense graphs
#: still need small chunks to keep the per-arc buffers cache-resident.
#: Measured sweet spots scale roughly with ``1 / degree**2`` — see
#: :func:`_numpy_chunk_rows`.
NUMPY_CHUNK_MIN_ROWS = 2048
NUMPY_CHUNK_MAX_ROWS = 32768
NUMPY_CHUNK_BUDGET = 163840

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


def resolve_chunk_rows(csr: CSRGraph, length: int, chunk_rows: "int | None") -> int:
    """The row-chunk size of one keyed sweep."""
    if chunk_rows is None:
        return _numpy_chunk_rows(csr, length)
    rows = int(chunk_rows)
    if rows < 1:
        raise InvalidParameterError(f"chunk_rows must be >= 1, got {chunk_rows}")
    return rows


class _Scratch:
    """Named, grow-only scratch buffers reused across steps and chunks.

    One instance per thread (the kernel is a process-wide singleton and
    the service's read pool samples concurrently), sized to the largest
    request seen; ``get`` returns a leading view, so the per-step cost is the
    writes into the buffer, never allocation.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self._iota_i64 = np.arange(0, dtype=np.int64)

    def get(self, name: str, size: int, dtype: np.dtype) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = np.empty(max(size, 256), dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size]

    def get2d(self, name: str, rows: int, cols: int, dtype: np.dtype) -> np.ndarray:
        return self.get(name, rows * cols, dtype).reshape(rows, cols)

    def iota_i64(self, size: int) -> np.ndarray:
        if self._iota_i64.size < size:
            self._iota_i64 = np.arange(max(size, 256), dtype=np.int64)
        return self._iota_i64[:size]


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

    Same chunk structure and identical arithmetic as a plain per-step loop
    over the ragged arc layout, with the per-element work cut roughly in
    half:

    * The first splitmix64 of every arc uniform depends only on the arc's
      local key, so ``splitmix64(csr_arc_keys(csr))`` — with the
      existence thresholds and the out-degree array — is computed once per
      snapshot (:func:`_sweep_tables`, kept on the immutable CSR) and
      gathered per step.  Until a sweep large enough to amortize the table
      comes along, tiny sweeps over a snapshot hash the gathered local keys
      per step instead.
    * The existence test compares raw hash bits against precomputed
      pre-shifted integer thresholds ``ceil(p * 2^53) << 11`` — exactly
      equivalent to the float compare ``(h >> 11) * 2^-53 < p`` (both
      sides are exact reals, and for thresholds below ``2^53`` the shift
      commutes with the compare), skipping both the float conversion and
      the shift of every candidate arc.
    * The ragged layout compresses each step to its instantiated arcs once
      (one ``flatnonzero``): the row boundaries' insertion points in that
      list give every row's instantiation count and first instantiated
      entry, so the ``(pick + 1)``-th instantiated arc is one gather — no
      ``reduceat`` and no per-arc row-id array (per-arc row values are
      ``repeat``s of per-row values).
    * Steps whose rows all have degree at most :data:`DENSE_MAX_COLS` and
      pad to at most :data:`DENSE_MAX_WASTE` times their real arc count
      take a padded ``(rows, max_deg)`` gather — plain 2-d vectorized ops,
      no ragged bookkeeping; other steps keep the fused ragged layout.

    ``sample`` takes the inputs that
    :func:`~repro.core.batch_walks.sample_walk_matrix_keyed` validated and
    returns the ``(count, length + 1)`` int64 walk matrix.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def _scratch(self) -> _Scratch:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _Scratch()
        return scratch

    def sample(
        self,
        csr: CSRGraph,
        sources: np.ndarray,
        length: int,
        world_keys: np.ndarray,
        chunk_rows: "int | None" = None,
        first_steps: "np.ndarray | None" = None,
    ) -> np.ndarray:
        rows = resolve_chunk_rows(csr, length, chunk_rows)
        count = sources.shape[0]
        walks = np.full((count, length + 1), NO_VERTEX, dtype=np.int64)
        if first_steps is None:
            walks[:, 0] = sources
        else:
            walks[np.arange(count), first_steps] = sources
        if count == 0 or length == 0:
            return walks
        scratch = self._scratch()
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
                scratch,
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


def _numpy_chunk_rows(csr: CSRGraph, length: int) -> int:
    """Default chunk size of a keyed sweep.

    The fused kernel's measured sweet spots fall off with the *square* of
    the average degree: on sparse graphs the per-step fixed costs
    (compaction, pick hashing, python dispatch) dominate, wanting many rows
    per chunk, while on dense graphs the per-arc scratch buffers grow
    ``degree``-fold per row and must stay cache-resident.  Chunking never
    changes a walk: each row is a pure function of its world key.
    """
    avg_degree = max(1.0, csr.num_arcs / max(1, csr.num_vertices))
    rows = int(NUMPY_CHUNK_BUDGET / (avg_degree * avg_degree))
    return max(NUMPY_CHUNK_MIN_ROWS, min(NUMPY_CHUNK_MAX_ROWS, rows))


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
    scratch: _Scratch,
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
    # step-independent; a plain step loop recomputes it every step).
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
    tmp_rows = np.empty(sources.shape[0], dtype=np.uint64)
    for step in range(length):
        late = joining.get(step)
        if late is not None:
            rowid = np.concatenate((rowid, late))
            current = np.concatenate((current, sources[late]))
            keys = np.concatenate((keys, world_keys[late]))
            pick_base = np.concatenate((pick_base, pick_all[late]))
        degrees = degree[current]
        has_out = degrees > 0
        if not has_out.all():
            rowid = rowid[has_out]
            current = current[has_out]
            keys = keys[has_out]
            pick_base = pick_base[has_out]
            degrees = degrees[has_out]
        if rowid.size == 0:
            if step >= last_join:
                break
            continue
        n = rowid.size
        starts = indptr[current]
        # Per-row pick uniforms: finish the hoisted pick hash for this step.
        mixed = pick_base + np.uint64(step + 1)
        pick_u = _splitmix64_inplace(mixed, tmp_rows[:n])
        np.right_shift(pick_u, _U11, out=pick_u)
        pick_u = pick_u.astype(np.float64)
        pick_u *= _INV_2_53

        # Dense is all-or-nothing per step: it wins only when the whole
        # step pads tightly, and the recombine cost of a per-row split
        # exceeds what the split saves on skewed (hub-heavy) graphs.
        max_deg = int(degrees.max())
        dense_ok = max_deg <= DENSE_MAX_COLS and max_deg * n <= DENSE_MAX_WASTE * int(
            degrees.sum()
        )
        step_rows = _dense_rows if dense_ok else _ragged_rows
        destinations, alive = step_rows(
            csr, arc_mix, thr, thr_shifted, current, starts, degrees, keys, pick_u,
            scratch,
        )

        rowid = rowid[alive]
        keys = keys[alive]
        pick_base = pick_base[alive]
        current = destinations
        walks[rowid, step + 1] = destinations


def _dense_rows(
    csr: CSRGraph,
    arc_mix: "np.ndarray | None",
    thr: "np.ndarray | None",
    thr_shifted: bool,
    current: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
    keys: np.ndarray,
    pick_u: np.ndarray,
    scratch: _Scratch,
) -> tuple:
    """One step over low-degree rows as a padded ``(rows, cols)`` gather."""
    n = starts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    cols = int(degrees.max())
    # Arc ids stay int64: fancy gathers with signed indices are ~3x faster
    # than with uint64 indices (numpy routes the latter through a slower
    # bounds-checked path).
    arc = scratch.get2d("dense_arc", n, cols, np.int64)
    np.add(starts[:, None], scratch.iota_i64(cols)[None, :], out=arc)
    # Padding lanes may run past the end of the arc arrays for the last
    # vertex; clamp them (they are masked by ``valid`` below, so the value
    # never matters — it only has to be a safe gather index).
    np.minimum(arc, max(csr.num_arcs - 1, 0), out=arc)
    valid = scratch.get2d("dense_valid", n, cols, np.bool_)
    np.less(scratch.iota_i64(cols)[None, :], degrees[:, None], out=valid)
    tmp = scratch.get2d("dense_tmp", n, cols, np.uint64)
    if arc_mix is not None:
        hash_ = arc_mix[arc]
    else:
        hash_ = local_arc_keys(current[:, None], scratch.iota_i64(cols)[None, :])
        _splitmix64_inplace(hash_, tmp)
    np.bitwise_xor(hash_, keys[:, None], out=hash_)
    _splitmix64_inplace(hash_, tmp)
    exists = scratch.get2d("dense_exists", n, cols, np.bool_)
    if thr is not None:
        if not thr_shifted:
            np.right_shift(hash_, _U11, out=hash_)
        np.less(hash_, thr[arc], out=exists)
    else:
        np.right_shift(hash_, _U11, out=hash_)
        uniforms = scratch.get2d("dense_uniforms", n, cols, np.float64)
        np.multiply(hash_, _INV_2_53, out=uniforms)
        np.less(uniforms, csr.probs[arc], out=exists)
    np.logical_and(exists, valid, out=exists)
    instantiated = exists.sum(axis=1, dtype=np.int64)
    alive = instantiated > 0
    picks = (pick_u * instantiated).astype(np.int64)
    running = scratch.get2d("dense_running", n, cols, np.int64)
    np.cumsum(exists, axis=1, dtype=np.int64, out=running)
    # The chosen arc is the first column whose running instantiation count
    # reaches ``pick + 1`` *and* is itself instantiated — exactly the
    # step loop's "(pick + 1)-th instantiated arc".
    hit = scratch.get2d("dense_hit", n, cols, np.bool_)
    np.equal(running, (picks + 1)[:, None], out=hit)
    np.logical_and(hit, exists, out=hit)
    chosen_col = np.argmax(hit, axis=1)
    destinations = csr.indices[(starts + chosen_col)[alive]]
    return destinations, alive


def _ragged_rows(
    csr: CSRGraph,
    arc_mix: "np.ndarray | None",
    thr: "np.ndarray | None",
    thr_shifted: bool,
    current: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
    keys: np.ndarray,
    pick_u: np.ndarray,
    scratch: _Scratch,
) -> tuple:
    """One step over rows of arbitrary degree in the ragged flat layout."""
    n = starts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    row_starts = scratch.get("ragged_row_starts", n + 1, np.int64)
    row_starts[0] = 0
    np.cumsum(degrees, out=row_starts[1:])
    total = int(row_starts[n])
    # Per-arc row values are ``repeat``s of per-row values (rows are
    # contiguous in the flat layout), never gathers through a row-id array.
    # Arc ids stay int64 throughout — see the dense path.
    arc = np.repeat(starts - row_starts[:n], degrees)
    arc += scratch.iota_i64(total)
    tmp = scratch.get("ragged_tmp", total, np.uint64)
    if arc_mix is not None:
        hash_ = arc_mix[arc]
    else:
        offsets = scratch.iota_i64(total) - np.repeat(row_starts[:n], degrees)
        hash_ = local_arc_keys(np.repeat(current, degrees), offsets)
        _splitmix64_inplace(hash_, tmp)
    np.bitwise_xor(hash_, np.repeat(keys, degrees), out=hash_)
    _splitmix64_inplace(hash_, tmp)
    exists = scratch.get("ragged_exists", total, np.bool_)
    if thr is not None:
        if not thr_shifted:
            np.right_shift(hash_, _U11, out=hash_)
        np.less(hash_, thr[arc], out=exists)
    else:
        np.right_shift(hash_, _U11, out=hash_)
        uniforms = scratch.get("ragged_uniforms", total, np.float64)
        np.multiply(hash_, _INV_2_53, out=uniforms)
        np.less(uniforms, csr.probs[arc], out=exists)
    # Compress to the instantiated arcs once, then do all the per-row
    # accounting at row granularity: ``set_pos`` lists the instantiated
    # flat positions in row order, so the row boundaries' insertion points
    # in it give each row's first instantiated entry (``row_base``) and the
    # instantiation counts (their differences), and the ``(pick + 1)``-th
    # instantiated arc of row ``r`` is simply ``set_pos[row_base[r] + pick]``.
    set_pos = np.flatnonzero(exists)
    bounds = np.searchsorted(set_pos, row_starts)
    row_base = bounds[:n]
    instantiated = bounds[1:] - row_base
    alive = instantiated > 0
    picks = (pick_u * instantiated).astype(np.int64)
    chosen = set_pos[(row_base + picks)[alive]]
    destinations = csr.indices[arc[chosen]]
    return destinations, alive


#: The process-wide kernel instance every keyed sweep runs through.
KERNEL = NumpyKernel()
