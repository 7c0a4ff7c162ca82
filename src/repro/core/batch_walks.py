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
draw of the ``j``-th out-arc of vertex ``x`` in walk ``i`` is the
counter-based uniform ``splitmix64(world_key_i ^ splitmix64((x << 32) |
j))``.  The arc is keyed *locally* — by its source vertex and its offset in
that vertex's row, never by its global CSR position — so a degree change in
one row leaves the draws of every other row alone.  Recomputing the hash at
every visit yields the same Bernoulli outcome, which is exactly the
"remembered instantiation" of the lazy possible world, with O(1) memory and
fully vectorized evaluation.

The uniform *choice* among instantiated arcs is made by **keyed rejection**
from a second counter-based stream of ``(world_key, step, try)``
(:func:`_pick_uniforms`).  For try ``t < TRIES`` the walk draws ``offset =
floor(u(world_key, step, t) * d)`` over its row of degree ``d`` and tests
that one arc's existence; the first arc that exists is taken.  A row that
is unresolved after :data:`TRIES` tries enumerates its whole row and takes
the ``(floor(u(world_key, step, TRIES) * |I|) + 1)``-th instantiated arc,
or ends the walk when none is instantiated.  The choice is exactly uniform
over the instantiated set ``I`` of the walk's world: every ``a`` in ``I`` is
taken with probability ``sum_{t < T} (1/d) (1 - |I|/d)^t + (1 - |I|/d)^T /
|I| = 1/|I|`` (the geometric sum is ``(1 - (1 - |I|/d)^T) / |I|``).  A
revisit recomputes the same existence hashes, so the world is still
remembered, and a step reads nothing but the row it leaves.  So every walk
is a pure function of its world key and of the out-rows it leaves — the
keyed, shared-fingerprint scheme of Fogaras & Rácz (WWW 2005), over the
possible-world distribution of Potamias et al. (VLDB 2010), that makes
batching, sharding and caching answer-neutral, and that lets a bundle store
survive a graph mutation: only the walks that left a mutated row change
(:meth:`ShardedWalkSampler.sample_bundles_mixed` resamples exactly those
rows of a cached bundle).

:class:`ShardedWalkSampler` is the one producer of walk bundles: the engine
and every service tenant resolve their walk needs through it (via
:class:`repro.core.executors.WalkSource`), the top-k index's walk lanes
included.  Bundles are stored compactly: int16 while the graph
has at most 32,767 vertices, int32 beyond (:func:`bundle_dtype`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.graph.csr import CSRGraph
from repro.utils.errors import InvalidParameterError

#: Default number of walks per shard of the keyed sampling scheme.  Part of
#: the RNG scheme: two samplers agree bit-for-bit only if they use the same
#: seed *and* shard size.
DEFAULT_SHARD_SIZE = 256

#: Keyed-rejection tries per walk step.  Part of the RNG scheme, like
#: :data:`DEFAULT_SHARD_SIZE`: try ``t`` tests the arc at offset
#: ``floor(u(world_key, step, t) * degree)``, and changing the count changes
#: which walks come out.  4 and 6 measured about the same on R-MAT graphs.
TRIES = 4

#: Sentinel marking "walk already truncated" entries of a walk matrix.
NO_VERTEX = -1

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)
#: Salt separating the per-step *choice* stream of the keyed sampler from the
#: per-arc *existence* stream (both are derived from the same world key).
_PICK_SALT = np.uint64(0xD1B54A32D192ED03)
_INV_2_53 = float(2.0**-53)


def shard_world_keys(
    seed: int, vertex_index: int, twin: bool, shard_index: int, shard_length: int
) -> np.ndarray:
    """The world keys of one shard — a pure function of its coordinates.

    This is the key-derivation rule of the deterministic sampling scheme
    behind :class:`ShardedWalkSampler`: the keys of shard ``s`` of endpoint
    ``(vertex, twin)`` come from ``SeedSequence(seed, spawn_key=(vertex,
    twin, s))``, independent of who evaluates them, so bundles sampled
    anywhere under the same ``(seed, shard_size)`` scheme are bit-identical.

    Derivation is memoized (the function is pure, so cached values are the
    values) at two sizes: the last 1,024 shards' key arrays, and the last
    16,384 shards' 32-byte PCG64 seeds — the ``SeedSequence`` hashing that
    dominates a derivation — from which a key array is redrawn in a few
    microseconds.  The returned array is shared and read-only — copy before
    mutating.
    """
    return _shard_world_keys_cached(
        int(seed), int(vertex_index), int(bool(twin)), int(shard_index),
        int(shard_length),
    )


class _SeedWords(ISeedSequence):
    """Hands PCG64 the seed words one ``SeedSequence`` generated."""

    __slots__ = ("words",)

    def __init__(self, words: bytes) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.frombuffer(self.words, dtype=np.uint64)


@lru_cache(maxsize=16384)
def _shard_seed_words(seed: int, vertex_index: int, twin: int, shard_index: int) -> bytes:
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(vertex_index, twin, shard_index)
    )
    return sequence.generate_state(4, np.uint64).tobytes()


@lru_cache(maxsize=1024)
def _shard_world_keys_cached(
    seed: int, vertex_index: int, twin: int, shard_index: int, shard_length: int
) -> np.ndarray:
    # The raw PCG64 stream seeded as ``PCG64(SeedSequence(...))`` seeds
    # itself: exactly ``default_rng(sequence).integers(0, 2**64, size,
    # dtype=np.uint64)`` (a full-range draw is the raw 64-bit output).
    words = _shard_seed_words(seed, vertex_index, twin, shard_index)
    keys = np.random.PCG64(_SeedWords(words)).random_raw(shard_length)
    keys.flags.writeable = False
    return keys


def endpoint_world_keys(
    seed: int, vertex_index: int, twin: bool, num_walks: int, shard_size: int
) -> np.ndarray:
    """All ``num_walks`` world keys of one endpoint bundle, shard by shard.

    The single place the per-bundle shard layout (including the short last
    shard) is spelled out: :meth:`ShardedWalkSampler.world_keys` assembles
    every bundle's keys through here.
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


def local_arc_keys(sources: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Existence-stream keys ``(source << 32) | offset`` of out-arcs.

    ``sources`` are the arcs' source vertex indices and ``offsets`` their
    positions within those vertices' out-rows.  Vertex indices are stable
    across incremental snapshots (vertices are only appended) and a clean row
    keeps its arcs in order, so an arc keeps its key across mutations of
    other rows.
    """
    return (sources.astype(np.uint64) << np.uint64(32)) | offsets.astype(np.uint64)


def csr_arc_keys(csr: CSRGraph) -> np.ndarray:
    """:func:`local_arc_keys` of every arc of ``csr``, in CSR order."""
    sources = csr.arc_sources()
    offsets = np.arange(csr.num_arcs, dtype=np.int64) - csr.indptr[sources]
    return local_arc_keys(sources, offsets)


def _arc_uniforms(world_keys: np.ndarray, arc_keys: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in ``[0, 1)`` for (walk, arc) pairs.

    ``world_keys`` and ``arc_keys`` (:func:`local_arc_keys`) broadcast
    against each other; the result is a pure function of the pair, which is
    what makes the lazy possible-world instantiation consistent across
    repeated visits within a walk.
    """
    mixed = _splitmix64(arc_keys.astype(np.uint64)) ^ world_keys
    return (_splitmix64(mixed) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _pick_uniforms(world_keys: np.ndarray, step: int, attempt: int) -> np.ndarray:
    """Counter-based uniforms in ``[0, 1)`` for try ``attempt`` of step ``step``.

    A pure function of ``(world_key, step, attempt)``, drawn from a stream
    salted away from the arc-existence stream of :func:`_arc_uniforms`: the
    counter of ``(step, attempt)`` is ``step * (TRIES + 1) + attempt + 1``,
    ``attempt`` running over the :data:`TRIES` rejection tries and then
    ``TRIES`` itself for the enumeration fallback.  Used by the keyed sampler
    so that a whole walk matrix is a deterministic function of its world
    keys, independent of evaluation order or sharding.
    """
    counter = np.uint64(step * (TRIES + 1) + attempt + 1)
    mixed = _splitmix64(world_keys ^ _PICK_SALT) + counter
    return (_splitmix64(mixed) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def sample_walk_matrix_keyed(
    csr: CSRGraph,
    sources: np.ndarray,
    length: int,
    world_keys: np.ndarray,
    chunk_rows: "int | None" = None,
    first_steps: "np.ndarray | None" = None,
) -> np.ndarray:
    """Sample one walk per ``(source, world key)`` pair, fully deterministically.

    Every entry of the returned matrix is a pure function of ``(csr,
    sources[i], world_keys[i])``: the arc-existence draws come from
    the counter-based hash of :func:`_arc_uniforms`, and the per-step choice
    among instantiated arcs is the keyed rejection of the module docstring,
    each try and the fallback drawing from :func:`_pick_uniforms` of
    ``(world_key, step, try)``.  The walks of any
    subset of rows can be computed in any order and concatenated, so mixing
    endpoints and walk counts in one sweep never changes a bundle (see
    :class:`ShardedWalkSampler`).

    ``sources`` may mix different endpoints freely, so the walk bundles of an
    entire query batch can be sampled in one vectorized sweep.

    ``chunk_rows`` overrides the row-chunk size (``None`` = the kernel's
    degree-scaled default); it never affects the sampled walks, only the
    evaluation granularity.

    ``first_steps`` (default all 0) resumes walks mid-way: row ``r`` stands
    on ``sources[r]`` at step ``first_steps[r]``, and its columns from there
    on are the suffix of any walk under the same world key that reached
    ``sources[r]`` at that step (its earlier columns are :data:`NO_VERTEX`).
    Bundle repair resamples a carried walk from its first dirtied vertex
    this way.

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
    if first_steps is not None:
        first_steps = np.ascontiguousarray(first_steps, dtype=np.int64)
        if first_steps.shape != sources.shape:
            raise InvalidParameterError("first_steps must match sources in shape")
        if first_steps.size and not (
            0 <= int(first_steps.min()) and int(first_steps.max()) <= length
        ):
            raise InvalidParameterError(f"first_steps must lie in [0, {length}]")
    if sources.size and not (
        0 <= int(sources.min()) and int(sources.max()) < csr.num_vertices
    ):
        raise InvalidParameterError("source indices out of range")
    # Called through the instance (not a bound method captured at import) so
    # a class-level wrap of ``NumpyKernel.sample`` sees every sweep.
    return _kernels.KERNEL.sample(
        csr, sources, length, world_keys, chunk_rows, first_steps
    )


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

    :meth:`ShardedWalkSampler.store_key` prefixes this with the sampling-scheme
    namespace ``("keyed", seed, shard_size)``, so that bundles drawn under
    different seeds or shard sizes can share one
    :class:`~repro.core.bundle_store.WalkBundleStore` without ever being
    mistaken for each other.
    """
    return (int(vertex_index), bool(twin), int(length), int(num_walks))



#: A walk-bundle need: (dense vertex index, twin flag, walk count).
BundleNeed = Tuple[int, bool, int]

#: A cached bundle to repair: the bundle, the row indices to resample, and
#: per row the step to resample from (the walk before it stays).
BundleRepair = Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]


def bundle_dtype(num_vertices: int) -> np.dtype:
    """The compact integer dtype of walk bundles over ``num_vertices`` vertices.

    int16 while every vertex index fits (``n <= 32767``), int32 beyond.  The
    :data:`NO_VERTEX` sentinel and every meeting count are the same in any
    signed dtype, so the choice never changes an answer.
    """
    return np.dtype(np.int16 if num_vertices <= np.iinfo(np.int16).max else np.int32)


class ShardedWalkSampler:
    """The keyed walk sampler: every bundle of a batch in one sweep.

    The ``num_walks`` walks of endpoint ``(vertex, twin)`` are laid out in
    fixed-size *shards*; the world keys of shard ``s`` derive from
    ``SeedSequence(seed, spawn_key=(vertex, twin, s))``
    (:func:`shard_world_keys`), and each walk is a pure function of its
    world key (:func:`sample_walk_matrix_keyed`).  A bundle is therefore
    bit-identical however batches are composed: an engine and a service
    tenant built with the same ``(seed, shard_size)`` agree walk for walk,
    and an ``N``-walk bundle is the exact prefix of a ``2N``-walk one.

    Parameters
    ----------
    seed:
        Base seed of the key-derivation scheme.  ``None`` draws one from OS
        entropy at construction (the instance is then still self-consistent:
        repeated sampling of the same endpoint yields the same bundle).
    shard_size:
        Walks per shard.  Part of the RNG scheme: it decides which world
        keys exist, so changing it changes the sampled walks.
    """

    def __init__(
        self, seed: Optional[int] = None, shard_size: int = DEFAULT_SHARD_SIZE
    ) -> None:
        if shard_size < 1:
            raise InvalidParameterError(f"shard_size must be >= 1, got {shard_size}")
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % (2**63)
        self.seed = int(seed)
        self.shard_size = int(shard_size)
        #: Fault-injection seam (tests only): when set, called at the top of
        #: every :meth:`sample_bundles_mixed`; an exception it raises
        #: propagates to the caller exactly like a real sampling failure.
        self._fail_hook: Optional[Callable[[], None]] = None

    def store_key(
        self, vertex_index: int, twin: bool, length: int, num_walks: int
    ) -> tuple:
        """Bundle-store key of one endpoint under this sampler's scheme.

        Namespaced by ``(seed, shard_size)`` — the two parameters that decide
        the sampled walks — so a store hit is always a bundle this sampler
        would resample bit-identically.
        """
        return ("keyed", self.seed, self.shard_size) + bundle_key(
            vertex_index, twin, length, num_walks
        )

    def world_keys(self, vertex_index: int, twin: bool, num_walks: int) -> np.ndarray:
        """All ``num_walks`` world keys of one endpoint, shard by shard."""
        return endpoint_world_keys(
            self.seed, vertex_index, twin, num_walks, self.shard_size
        )

    def sample_bundles_mixed(
        self,
        csr: CSRGraph,
        needs: Sequence[BundleNeed],
        length: int,
        repairs: Optional[Mapping[BundleNeed, BundleRepair]] = None,
    ) -> Dict[BundleNeed, np.ndarray]:
        """Walk bundles for endpoints with per-endpoint walk counts.

        ``needs`` are ``(vertex_index, twin, num_walks)`` triples (duplicates
        collapse).  ``repairs`` maps further needs to a cached ``(bundle,
        (rows, first_steps))``: only those rows are resampled, under their
        own world keys and each from its first step on (the walk reached
        ``bundle[row, first_step]`` unchanged), into a copy of the bundle.
        Every fresh need and every repaired row share one keyed sweep.  Each
        bundle is a ``(num_walks, length + 1)`` matrix of
        :func:`bundle_dtype` that owns its rows, so a store retaining it
        accounts for exactly the bytes it keeps alive.
        Returns ``{(vertex_index, twin, num_walks): matrix}``.
        """
        if self._fail_hook is not None:
            self._fail_hook()
        unique = list(
            dict.fromkeys(
                (int(vertex_index), bool(twin), int(num_walks))
                for vertex_index, twin, num_walks in needs
            )
        )
        for need in unique:
            if need[2] < 1:
                raise InvalidParameterError(f"num_walks must be >= 1, got {need[2]}")
        repairs = repairs or {}
        if not unique and not repairs:
            return {}
        sources = [np.full(need[2], need[0], dtype=np.int64) for need in unique]
        keys = [self.world_keys(*need) for need in unique]
        first_steps = None
        if repairs:
            firsts = [np.zeros(sum(need[2] for need in unique), dtype=np.int64)]
            for need, (cached, (rows, first)) in repairs.items():
                sources.append(cached[rows, first])
                keys.append(self.world_keys(*need)[rows])
                firsts.append(first)
            first_steps = np.concatenate(firsts)
        matrix = sample_walk_matrix_keyed(
            csr, np.concatenate(sources), length, np.concatenate(keys),
            first_steps=first_steps,
        )
        dtype = bundle_dtype(csr.num_vertices)
        bundles: Dict[BundleNeed, np.ndarray] = {}
        offset = 0
        for need in unique:
            bundles[need] = matrix[offset : offset + need[2]].astype(dtype)
            offset += need[2]
        for need, (cached, (rows, first)) in repairs.items():
            repaired = cached.astype(np.promote_types(cached.dtype, dtype))
            resumed = np.arange(length + 1) >= first[:, None]
            repaired[rows] = np.where(
                resumed, matrix[offset : offset + rows.size], repaired[rows]
            )
            bundles[need] = repaired
            offset += rows.size
        return bundles

# Imported last: kernels imports this module's splitmix helpers, so the
# import has to wait until they are defined.  Loading it here (not on the
# first sweep) keeps its import cost out of the first query.
from repro.core import kernels as _kernels  # noqa: E402
