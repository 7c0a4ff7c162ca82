"""Keyed batch walk sampling for the sampling-based algorithms (Section VI-B).

The scalar oracle (:func:`repro.core.sampling.sample_walk`) draws one walk at
a time over the dict-of-dict graph, paying a Python-level dict lookup and RNG
call per step.  This module samples whole walk bundles *simultaneously* on a
:class:`~repro.graph.csr.CSRGraph` snapshot, as an ``(N, length + 1)``
integer matrix of dense vertex indices (``-1`` marking the tail of truncated
walks).

Semantics match the scalar sampler: a walk samples *with its walk
probability* by lazily instantiating possible-world arcs — the first time a
walk visits a vertex, each out-arc is materialised independently with its
existence probability and the instantiation is remembered for the rest of
that walk; every visit then chooses uniformly among the instantiated arcs.

Per-(walk, arc) instantiation memory is implemented without storing any
per-walk state: each walk carries a 64-bit *world key*, and the existence
draw of arc ``j`` in walk ``i`` is the counter-based uniform
``splitmix64(world_key_i ^ mix(j))``.  Recomputing the hash at every visit
yields the same Bernoulli outcome, which is exactly the "remembered
instantiation" of the lazy possible world, with O(1) memory and fully
vectorized evaluation.  The uniform *choice* among instantiated arcs comes
from a second counter-based stream of ``(world_key, step)``, so every walk is
a pure function of its world key — the keyed, shared-fingerprint scheme of
Fogaras & Rácz (WWW 2005) that makes batching, sharding and caching
answer-neutral.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.errors import InvalidParameterError

#: Default number of walks per shard of the keyed sampling scheme.  Part of
#: the RNG scheme: two samplers agree bit-for-bit only if they use the same
#: seed *and* shard size.  (Re-exported by :mod:`repro.service.sharding`.)
DEFAULT_SHARD_SIZE = 256

#: Sentinel marking "walk already truncated" entries of a walk matrix.
NO_VERTEX = -1

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)
#: Salt separating the per-step *choice* stream of the keyed sampler from the
#: per-arc *existence* stream (both are derived from the same world key).
_PICK_SALT = np.uint64(0xD1B54A32D192ED03)
_INV_2_53 = float(2.0**-53)

#: Minimum row-chunk size of the keyed sampler.  Multi-source batches can
#: reach hundreds of thousands of walks; the per-step flat arc arrays of such
#: a batch spill out of cache and the whole sweep becomes memory-bound (a
#: 200k walk sweep runs ~5x slower un-chunked).  Walks are row-independent,
#: so evaluating the batch in chunks is bit-identical and keeps the working
#: set cache-resident; ~2k rows measured best on laptop-class CPUs at the
#: paper datasets' density (average out-degree ~10) and default walk length.
KEYED_CHUNK_MIN_ROWS = 2048

#: Ceiling of :func:`keyed_chunk_rows`: past this, even sparse-graph sweeps
#: stop gaining from fewer chunk boundaries.
KEYED_CHUNK_MAX_ROWS = 8192

#: Per-chunk arc budget behind :func:`keyed_chunk_rows`.  The step loop's
#: working set is the flat candidate-arc arrays — rows × average out-degree
#: entries across ~6 temporaries — so the cache-resident chunk size is an
#: *arc* budget, not a row count.
KEYED_CHUNK_TARGET_ARCS = 8192


def keyed_chunk_rows(length: int, avg_out_degree: float) -> int:
    """Row-chunk size of the keyed sampler for one workload shape.

    Two effects pull in opposite directions.  The per-*step* working set is
    the flat candidate-arc arrays, rows × ``avg_out_degree`` entries — the
    cache-residency constraint that makes chunking worthwhile at all — so
    denser graphs want *fewer* rows per chunk.  The Python-level loop
    overhead, though, is paid once per chunk per step, and a short walk has
    few steps to amortize it over — so small-``n`` (short-walk) sweeps want
    *larger* chunks, which the ``(length + 1) / length`` factor provides
    (2x at one step, asymptotically 1 for long walks).  Sparse short-walk
    workloads no longer serialize on tiny chunks, while at the paper
    datasets' density the result clamps to the measured 2048-row optimum —
    the old fixed size, now the floor.  Chunking affects performance only:
    every walk is a pure function of its world key regardless of chunk
    boundaries.
    """
    steps = max(1, length)
    rows = int(
        KEYED_CHUNK_TARGET_ARCS * (steps + 1) / (steps * max(1.0, avg_out_degree))
    )
    return max(KEYED_CHUNK_MIN_ROWS, min(KEYED_CHUNK_MAX_ROWS, rows))


def shard_world_keys(
    seed: int, vertex_index: int, twin: bool, shard_index: int, shard_length: int
) -> np.ndarray:
    """The world keys of one shard — a pure function of its coordinates.

    This is the key-derivation rule of the deterministic sampling scheme
    shared by every walk producer (the engine's serial
    :class:`repro.core.executors.SerialWalkSource` and the service's
    :class:`repro.service.sharding.ShardedWalkSampler`): the keys of shard
    ``s`` of endpoint ``(vertex, twin)`` come from
    ``SeedSequence(seed, spawn_key=(vertex, twin, s))``, independent of who
    evaluates them, so bundles sampled anywhere under the same ``(seed,
    shard_size)`` scheme are bit-identical.

    Derivation is memoized (the function is pure, so cached values are the
    values): constructing a ``SeedSequence`` + ``Generator`` per shard is
    pure-Python overhead otherwise paid on every batch.  The returned array
    is shared and read-only — copy before mutating.
    """
    return _shard_world_keys_cached(
        int(seed), int(vertex_index), int(bool(twin)), int(shard_index),
        int(shard_length),
    )


@lru_cache(maxsize=1024)
def _shard_world_keys_cached(
    seed: int, vertex_index: int, twin: int, shard_index: int, shard_length: int
) -> np.ndarray:
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(vertex_index, twin, shard_index)
    )
    keys = np.random.default_rng(sequence).integers(
        0, 2**64, size=shard_length, dtype=np.uint64
    )
    keys.flags.writeable = False
    return keys


def endpoint_world_keys(
    seed: int, vertex_index: int, twin: bool, num_walks: int, shard_size: int
) -> np.ndarray:
    """All ``num_walks`` world keys of one endpoint bundle, shard by shard.

    The single place the per-bundle shard layout (including the short last
    shard) is spelled out — every producer of the keyed scheme assembles its
    keys through here, so the layout can never drift between the serial and
    the sharded-parallel samplers.
    """
    keys = np.empty(num_walks, dtype=np.uint64)
    for shard in range(-(-int(num_walks) // int(shard_size))):
        start = shard * shard_size
        stop = min(start + shard_size, num_walks)
        keys[start:stop] = shard_world_keys(
            seed, vertex_index, twin, shard, stop - start
        )
    return keys


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over a uint64 array (wrapping)."""
    z = x + _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_M1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_M2
    return z ^ (z >> np.uint64(31))


def _arc_uniforms(world_keys: np.ndarray, arc_ids: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in ``[0, 1)`` for (walk, arc) pairs.

    ``world_keys`` and ``arc_ids`` broadcast against each other; the result is
    a pure function of the pair, which is what makes the lazy possible-world
    instantiation consistent across repeated visits within a walk.
    """
    mixed = _splitmix64(arc_ids.astype(np.uint64)) ^ world_keys
    return (_splitmix64(mixed) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _pick_uniforms(world_keys: np.ndarray, step: int) -> np.ndarray:
    """Counter-based uniforms in ``[0, 1)`` for the step-``step`` arc choice.

    A pure function of ``(world_key, step)``, drawn from a stream salted away
    from the arc-existence stream of :func:`_arc_uniforms`.  Used by the keyed
    sampler so that a whole walk matrix is a deterministic function of its
    world keys, independent of evaluation order or sharding.
    """
    mixed = _splitmix64(world_keys ^ _PICK_SALT) + np.uint64(step + 1)
    return (_splitmix64(mixed) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def sample_walk_matrix_keyed(
    csr: CSRGraph,
    sources: np.ndarray,
    length: int,
    world_keys: np.ndarray,
    chunk_rows: "int | None" = None,
) -> np.ndarray:
    """Sample one walk per ``(source, world key)`` pair, fully deterministically.

    Every entry of the returned matrix is a pure function of ``(csr,
    sources[i], world_keys[i])``: the arc-existence draws come from
    the counter-based hash of :func:`_arc_uniforms` and the per-step choice
    among instantiated arcs from :func:`_pick_uniforms`.  This is what makes
    sharded parallel sampling bit-identical to a single-process pass — the
    walks of any subset of rows can be computed anywhere, in any order, and
    concatenated (see :class:`repro.service.sharding.ShardedWalkSampler`).

    ``sources`` may mix different endpoints freely, so the walk bundles of an
    entire query batch can be sampled in one vectorized sweep.

    ``chunk_rows`` overrides the row-chunk size (``None`` = the kernel's
    degree-scaled default); it never affects the sampled walks, only the
    evaluation granularity.

    The sweep runs the fused :data:`repro.core.kernels.KERNEL`.
    """
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    world_keys = np.ascontiguousarray(world_keys, dtype=np.uint64)
    if sources.ndim != 1 or world_keys.shape != sources.shape:
        raise InvalidParameterError(
            "sources and world_keys must be 1-d arrays of the same length"
        )
    if length < 0:
        raise InvalidParameterError(f"length must be >= 0, got {length}")
    if sources.size and not (
        0 <= int(sources.min()) and int(sources.max()) < csr.num_vertices
    ):
        raise InvalidParameterError("source indices out of range")
    # Called through the instance (not a bound method captured at import) so
    # a class-level wrap of ``NumpyKernel.sample`` sees every sweep.
    return _kernels.KERNEL.sample(csr, sources, length, world_keys, chunk_rows)


def meeting_probabilities_from_matrices(
    walks_u: np.ndarray,
    walks_v: np.ndarray,
    iterations: int,
    same_endpoint: bool,
) -> List[float]:
    """Estimate ``m(0) … m(n)`` from two walk matrices (Eq. 13, vectorized).

    ``m(0)`` needs no sampling (1 iff the endpoints coincide); for ``k >= 1``
    the estimate is the fraction of rows where both walks are still alive at
    step ``k`` and stand on the same vertex.
    """
    if walks_u.shape != walks_v.shape:
        raise InvalidParameterError("walk matrices must have the same shape")
    count, columns = walks_u.shape
    if count < 1:
        raise InvalidParameterError("at least one pair of sampled walks is required")
    if columns < iterations + 1:
        raise InvalidParameterError(
            f"walk matrices cover {columns - 1} steps, need {iterations}"
        )
    steps_u = walks_u[:, 1 : iterations + 1]
    steps_v = walks_v[:, 1 : iterations + 1]
    hits = ((steps_u == steps_v) & (steps_u != NO_VERTEX)).sum(axis=0)
    return [1.0 if same_endpoint else 0.0] + (hits / count).tolist()


def meeting_probabilities_against_many(
    walks_u: np.ndarray,
    bundles: Sequence[np.ndarray],
    iterations: int,
    chunk_size: int = 128,
) -> np.ndarray:
    """``m(1) … m(n)`` of one query bundle against many candidate bundles.

    The batched analogue of :func:`meeting_probabilities_from_matrices` for
    top-k-for-vertex queries: instead of one numpy pass per candidate, the
    candidate bundles are stacked (in chunks of ``chunk_size``, to bound the
    transient 3-d array) and compared against the query bundle in a single
    broadcasted comparison.  Returns a ``(len(bundles), iterations)`` float
    array; row ``j`` is ``m(1) … m(n)`` of the pair (query, candidate ``j``).
    ``m(0)`` is not included — it needs no sampling and depends only on
    whether the endpoints coincide, which the caller knows.
    """
    count, columns = walks_u.shape
    if count < 1:
        raise InvalidParameterError("at least one pair of sampled walks is required")
    if columns < iterations + 1:
        raise InvalidParameterError(
            f"walk matrices cover {columns - 1} steps, need {iterations}"
        )
    if chunk_size < 1:
        raise InvalidParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    steps_u = walks_u[:, 1 : iterations + 1]
    alive_u = steps_u != NO_VERTEX
    result = np.empty((len(bundles), iterations), dtype=np.float64)
    for start in range(0, len(bundles), chunk_size):
        block = bundles[start : start + chunk_size]
        for matrix in block:
            if matrix.shape != walks_u.shape:
                raise InvalidParameterError("walk matrices must have the same shape")
        stacked = np.stack(block)[:, :, 1 : iterations + 1]
        hits = ((stacked == steps_u[None]) & alive_u[None]).sum(axis=1)
        result[start : start + len(block)] = hits / count
    return result


def bundle_key(
    vertex_index: int, twin: bool, length: int, num_walks: int
) -> tuple:
    """Canonical store-key *suffix* of one endpoint's walk bundle.

    Every producer prefixes this with its sampling-scheme namespace,
    ``("keyed", seed, shard_size)`` (see
    :meth:`repro.service.sharding.ShardedWalkSampler.store_key`), so that
    bundles drawn under different seeds or shard sizes can share one
    :class:`~repro.service.bundle_store.WalkBundleStore` without ever being
    mistaken for each other.
    """
    return (int(vertex_index), bool(twin), int(length), int(num_walks))


# Imported last: kernels imports this module's splitmix helpers, so the
# import has to wait until they are defined.  Loading it here (not on the
# first sweep) keeps its import cost out of the first query.
from repro.core import kernels as _kernels  # noqa: E402
