"""The keyed walk sweep kernel, plus its reference oracle.

Every consumer of the serving stack — the service read pool, SR-TS meeting
tails, SR-SP filter builds, the top-k index's sketch construction — bottoms
out in :func:`repro.core.batch_walks.sample_walk_matrix_keyed`, which runs
the fused :class:`NumpyKernel` (the module-level :data:`KERNEL`).  Its step
loop is fully deterministic: every walk is a pure function of ``(csr,
source, world key)`` under the splitmix64 counter scheme, so any
evaluation strategy that reproduces that scheme bit-for-bit samples the
same walks.

:class:`ReferenceKernel` is the original step loop, written for clarity
rather than speed.  No option routes to it; it is the test oracle the
fused kernel is pinned bit-identical against.
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
    _arc_uniforms,
    _pick_uniforms,
    _splitmix64,
    keyed_chunk_rows,
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
    "ReferenceKernel",
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
#: per-row working set is a fraction of the reference loop's (scratch
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
    """The row-chunk size of one keyed sweep (shared by both kernels)."""
    if chunk_rows is None:
        degree = csr.num_arcs / max(1, csr.num_vertices)
        return keyed_chunk_rows(length, degree)
    rows = int(chunk_rows)
    if rows < 1:
        raise InvalidParameterError(f"chunk_rows must be >= 1, got {chunk_rows}")
    return rows


class ReferenceKernel:
    """The original chunked step loop — the bit-identity test oracle.

    ``sample`` has the same contract as :meth:`NumpyKernel.sample`.
    """

    def sample(
        self,
        csr: CSRGraph,
        sources: np.ndarray,
        length: int,
        world_keys: np.ndarray,
        chunk_rows: "int | None" = None,
    ) -> np.ndarray:
        rows = resolve_chunk_rows(csr, length, chunk_rows)
        if sources.size <= rows:
            return self._sample_chunk(csr, sources, length, world_keys)
        return np.concatenate(
            [
                self._sample_chunk(
                    csr,
                    sources[start : start + rows],
                    length,
                    world_keys[start : start + rows],
                )
                for start in range(0, sources.size, rows)
            ],
            axis=0,
        )

    @staticmethod
    def _sample_chunk(
        csr: CSRGraph, sources: np.ndarray, length: int, world_keys: np.ndarray
    ) -> np.ndarray:
        """One chunk of the step loop, in the ragged flat arc layout."""
        count = sources.shape[0]
        walks = np.full((count, length + 1), NO_VERTEX, dtype=np.int64)
        walks[:, 0] = sources
        if count == 0 or length == 0:
            return walks

        active = np.arange(count)
        current = sources.astype(np.int64, copy=True)
        indptr, indices, probs = csr.indptr, csr.indices, csr.probs
        for step in range(length):
            if active.size == 0:
                break
            vertices = current[active]
            starts = indptr[vertices]
            degrees = indptr[vertices + 1] - starts
            has_out = degrees > 0
            active, starts, degrees = active[has_out], starts[has_out], degrees[has_out]
            if active.size == 0:
                break
            # Flat ragged layout: one entry per candidate (walk, out-arc)
            # pair, so the per-step work is the actual arc count, not
            # walks × max-degree.
            row_starts = np.concatenate(([0], degrees.cumsum()))
            flat_row = np.repeat(np.arange(active.size), degrees)
            arc_ids = starts[flat_row] + np.arange(row_starts[-1]) - row_starts[flat_row]
            uniforms = _arc_uniforms(world_keys[active][flat_row], arc_ids)
            exists = (uniforms < probs[arc_ids]).astype(np.int64)
            instantiated = np.add.reduceat(exists, row_starts[:-1])
            alive = instantiated > 0
            # Uniform choice among the instantiated arcs of each walk: pick
            # the (picks + 1)-th instantiated arc by its within-row count.
            picks = (_pick_uniforms(world_keys[active], step) * instantiated).astype(
                np.int64
            )
            cumulative = exists.cumsum()
            row_base = cumulative[row_starts[:-1]] - exists[row_starts[:-1]]
            within = cumulative - row_base[flat_row]
            chosen = np.flatnonzero(exists & (within == picks[flat_row] + 1))
            destinations = indices[arc_ids[chosen]]
            active = active[alive]
            walks[active, step + 1] = destinations
            current[active] = destinations
        return walks


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

    Same chunk structure and identical arithmetic as the reference, with the
    per-element work cut roughly in half:

    * The first splitmix64 of every arc uniform depends only on the arc id,
      so ``splitmix64(arange(num_arcs))`` is hoisted out of the loop and
      gathered per step (when the sweep is large enough to amortize it),
      as is the per-vertex out-degree array.
    * The existence test compares raw hash bits against precomputed
      pre-shifted integer thresholds ``ceil(p * 2^53) << 11`` — exactly
      equivalent to the float compare ``(h >> 11) * 2^-53 < p`` (both
      sides are exact reals, and for thresholds below ``2^53`` the shift
      commutes with the compare), skipping both the float conversion and
      the shift of every candidate arc.
    * One global ``cumsum`` over the existence bits yields the per-row
      instantiation counts (differences of its row-end values — no
      ``reduceat``) *and* selects the picked arc: its increments are 0/1,
      so the unique instantiated position where it equals ``row_base +
      pick + 1`` is the ``(pick + 1)``-th instantiated arc of the row.
    * Steps whose rows all have degree at most :data:`DENSE_MAX_COLS` and
      pad to at most :data:`DENSE_MAX_WASTE` times their real arc count
      take a padded ``(rows, max_deg)`` gather — plain 2-d vectorized ops,
      no ``repeat`` ragged bookkeeping; other steps keep the fused ragged
      layout, with hub rows split out so the light majority can still go
      dense.

    ``sample`` takes the inputs that
    :func:`~repro.core.batch_walks.sample_walk_matrix_keyed` validated and
    returns the same walk matrix as :class:`ReferenceKernel`.
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
    ) -> np.ndarray:
        if chunk_rows is None:
            rows = _numpy_chunk_rows(csr, length)
        else:
            rows = resolve_chunk_rows(csr, length, chunk_rows)
        count = sources.shape[0]
        walks = np.full((count, length + 1), NO_VERTEX, dtype=np.int64)
        walks[:, 0] = sources
        if count == 0 or length == 0:
            return walks
        scratch = self._scratch()
        degree = np.diff(csr.indptr)
        # Hoist the per-arc splitmix prefix and existence thresholds out of
        # the step loop when the sweep touches enough arcs to amortize the
        # two passes over the arc arrays; tiny sweeps over huge graphs skip
        # the precompute and hash gathered arc ids per step instead.  When
        # every threshold is below 2^53 (i.e. no certain arcs) the shift
        # onto the hash's high bits is hoisted into the threshold table too.
        arc_mix = thr = None
        thr_shifted = False
        expected_arc_work = count * length * (csr.num_arcs / max(1, csr.num_vertices))
        if csr.num_arcs and expected_arc_work >= csr.num_arcs:
            arc_mix = _splitmix64(np.arange(csr.num_arcs, dtype=np.uint64))
            thr = np.ceil(csr.probs * _2_53).astype(np.uint64)
            if int(thr.max()) < (1 << 53):
                thr = thr << _U11
                thr_shifted = True
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
                walks[start:stop],
                scratch,
            )
        return walks


def _numpy_chunk_rows(csr: CSRGraph, length: int) -> int:
    """Default chunk size of the fused kernel (wider than the reference's).

    Unlike :func:`~repro.core.batch_walks.keyed_chunk_rows` (which targets a
    fixed arc count per chunk), the fused kernel's measured sweet spots fall
    off with the *square* of the average degree: on sparse graphs the
    per-step fixed costs (compaction, pick hashing, python dispatch)
    dominate, wanting many rows per chunk, while on dense graphs the
    per-arc scratch buffers grow ``degree``-fold per row and must stay
    cache-resident.
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
    walks: np.ndarray,
    scratch: _Scratch,
) -> None:
    """Run the fused step loop over one chunk, writing into ``walks``."""
    indptr = csr.indptr
    # Live-walk state, compacted every step: original row ids (for writing
    # into ``walks``), current vertices, world keys, and the hoisted first
    # half of the pick-uniform hash (``splitmix64(key ^ salt)`` is
    # step-independent; the reference recomputes it every step).
    rowid = np.arange(sources.shape[0])
    current = sources.astype(np.int64, copy=True)
    keys = world_keys
    pick_base = _splitmix64(world_keys ^ _PICK_SALT)
    tmp_rows = np.empty(sources.shape[0], dtype=np.uint64)
    for step in range(length):
        if rowid.size == 0:
            break
        degrees = degree[current]
        has_out = degrees > 0
        if not has_out.all():
            rowid = rowid[has_out]
            current = current[has_out]
            keys = keys[has_out]
            pick_base = pick_base[has_out]
            degrees = degrees[has_out]
            if rowid.size == 0:
                break
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
        if dense_ok:
            destinations, alive = _dense_rows(
                csr, arc_mix, thr, thr_shifted, starts, degrees, keys, pick_u, scratch
            )
        else:
            destinations, alive = _ragged_rows(
                csr, arc_mix, thr, thr_shifted, starts, degrees, keys, pick_u, scratch
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
        hash_ = arc.astype(np.uint64)
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
    # reference's "(pick + 1)-th instantiated arc".
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
    flat_row = np.repeat(scratch.iota_i64(n), degrees)
    # Arc ids stay int64 throughout — see the dense path.
    arc = (starts - row_starts[:n])[flat_row]
    arc += scratch.iota_i64(total)
    tmp = scratch.get("ragged_tmp", total, np.uint64)
    if arc_mix is not None:
        hash_ = arc_mix[arc]
    else:
        hash_ = arc.astype(np.uint64)
        _splitmix64_inplace(hash_, tmp)
    np.bitwise_xor(hash_, keys[flat_row], out=hash_)
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
    # flat positions in row order, ``bincount`` of their row ids gives the
    # instantiation counts (no ``reduceat``, no global ``cumsum`` over the
    # arcs), and the ``(pick + 1)``-th instantiated arc of row ``r`` is
    # simply ``set_pos[row_base[r] + pick]``.
    set_pos = np.flatnonzero(exists)
    instantiated = np.bincount(flat_row[set_pos], minlength=n)
    alive = instantiated > 0
    picks = (pick_u * instantiated).astype(np.int64)
    row_base = np.cumsum(instantiated)
    row_base -= instantiated
    chosen = set_pos[(row_base + picks)[alive]]
    destinations = csr.indices[arc[chosen]]
    return destinations, alive


#: The process-wide kernel instance every keyed sweep runs through.
KERNEL = NumpyKernel()
