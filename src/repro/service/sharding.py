"""Deterministic sharded parallel walk sampling.

The service samples the walk bundles of a query batch by partitioning the
``N`` walks of every endpoint into fixed-size *shards* and distributing the
shards over a worker pool.  Reproducibility is the whole design:

* The world keys of shard ``s`` of endpoint ``(vertex, twin)`` are derived
  from the sampler's base seed through
  ``numpy.random.SeedSequence(seed, spawn_key=(vertex, twin, s))`` — a pure
  function of the scheme, independent of scheduling.
* The walks themselves come from
  :func:`repro.core.batch_walks.sample_walk_matrix_keyed`, whose output is a
  pure function of ``(graph snapshot, source, world key)``.

Together these make the sampled bundles **bit-identical** no matter how many
workers run, which executor kind is used, or in what order shards complete —
the sharded service is pinned against the single-process engine by
``tests/test_service.py``.  ``shard_size`` *is* part of the scheme (it
decides which world keys exist), so changing it changes the sampled walks;
``num_workers`` and ``executor`` never do.

Executor kinds:

* ``"serial"`` — everything in the calling thread, one vectorized sweep over
  all requested bundles (the single-process reference).
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; numpy
  releases the GIL in the hot loops, so threads help on large batches.
* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`; the CSR
  arrays are shipped to each worker once, at pool (re)creation.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch_walks import (
    DEFAULT_SHARD_SIZE,
    bundle_key,
    endpoint_world_keys,
    sample_walk_matrix_keyed,
    shard_world_keys,
)
from repro.core.kernels import validate_kernel
from repro.graph.csr import CSRGraph
from repro.utils.errors import InvalidParameterError

#: How shard evaluation is distributed.
EXECUTORS = ("serial", "thread", "process")

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "EXECUTORS",
    "ShardedWalkSampler",
    "shard_world_keys",
]

#: A bundle request: (dense vertex index, twin flag).
BundleRequest = Tuple[int, bool]

#: A mixed-count bundle need: (dense vertex index, twin flag, num_walks).
BundleNeed = Tuple[int, bool, int]

# -- process-pool plumbing ----------------------------------------------------
#
# Each worker process receives the CSR arrays once (via the pool initializer)
# and rebuilds a CSRGraph under integer labels; the keyed sampler only ever
# touches the arrays, so the original labels are not needed.

_WORKER_CSR: Optional[CSRGraph] = None


def _init_worker(indptr: np.ndarray, indices: np.ndarray, probs: np.ndarray) -> None:
    global _WORKER_CSR
    _WORKER_CSR = CSRGraph(indptr, indices, probs, tuple(range(len(indptr) - 1)))


def _process_task(
    sources: np.ndarray,
    world_keys: np.ndarray,
    length: int,
    kernel: Optional[str] = None,
) -> np.ndarray:
    assert _WORKER_CSR is not None, "worker pool initializer did not run"
    return sample_walk_matrix_keyed(
        _WORKER_CSR, sources, length, world_keys, kernel=kernel
    )


class ShardedWalkSampler:
    """Sample walk bundles with deterministic sharding over a worker pool.

    Parameters
    ----------
    seed:
        Base seed of the key-derivation scheme.  ``None`` draws one from OS
        entropy at construction (the instance is then still self-consistent:
        repeated sampling of the same endpoint yields the same bundle).
    shard_size:
        Walks per shard.  Part of the RNG scheme — see the module docstring.
    num_workers:
        Worker count for the ``"thread"`` / ``"process"`` executors.
    executor:
        One of :data:`EXECUTORS`.  Affects execution only, never results.
    kernel:
        Kernel backend name for the keyed sweeps (see
        :mod:`repro.core.kernels`).  ``None``/"auto" defers to the
        ``REPRO_KERNEL`` environment default.  Affects speed only, never
        results — every backend is bit-identical.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        num_workers: int = 1,
        executor: str = "serial",
        kernel: Optional[str] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise InvalidParameterError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if shard_size < 1:
            raise InvalidParameterError(f"shard_size must be >= 1, got {shard_size}")
        if num_workers < 1:
            raise InvalidParameterError(f"num_workers must be >= 1, got {num_workers}")
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % (2**63)
        self.seed = int(seed)
        self.shard_size = int(shard_size)
        self.num_workers = int(num_workers)
        self.executor = executor
        self.kernel = validate_kernel(kernel)
        #: Fault-injection seam (tests only): when set, called at the top of
        #: every :meth:`sample_bundles`; an exception it raises propagates to
        #: the caller exactly like a real sampling failure (worker crash,
        #: memory error), which is what the chaos tests inject.
        self._fail_hook: Optional[callable] = None
        self._pool: Optional[Executor] = None
        # Strong reference to the snapshot the pool was initialized with: a
        # process pool carries copies of these arrays, and comparing by
        # identity is only sound while the object cannot be id-recycled.
        self._pool_csr: Optional[CSRGraph] = None
        # Guards pool creation/recreation: the service's read workers may
        # sample concurrently (even against different pinned snapshots), and
        # a process pool being re-initialized for one snapshot must not be
        # torn down under a batch submitting to it for another.
        self._pool_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (no-op for the serial executor)."""
        with self._pool_lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_csr = None

    def __enter__(self) -> "ShardedWalkSampler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _thread_pool(self) -> Executor:
        """The (csr-independent) thread pool, created once and kept.

        Thread tasks receive the snapshot per call, so one pool serves every
        graph version concurrently — no churn across epochs.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.num_workers)
            return self._pool

    def _process_pool_locked(self, csr: CSRGraph) -> Executor:
        """The process pool initialized for ``csr`` (caller holds the lock).

        Worker processes carry the CSR arrays from the pool initializer, so
        a pool is bound to one snapshot and rebuilt when it changes; callers
        keep the lock for submit + drain, serializing process-pool batches
        of different snapshots against each other.
        """
        if self._pool is not None and self._pool_csr is csr:
            return self._pool
        self._close_locked()
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            initializer=_init_worker,
            initargs=(csr.indptr, csr.indices, csr.probs),
        )
        self._pool_csr = csr
        return self._pool

    # -- key derivation -------------------------------------------------------

    def store_key(
        self, vertex_index: int, twin: bool, length: int, num_walks: int
    ) -> tuple:
        """Bundle-store key of one endpoint under this sampler's scheme.

        Namespaced by ``(seed, shard_size)`` — the two parameters that decide
        the sampled walks — so bundles from a differently-configured sampler
        (or from the engine's stateful-generator cache) never alias: a store
        hit is always a bundle this sampler would resample bit-identically.
        """
        return ("keyed", self.seed, self.shard_size) + bundle_key(
            vertex_index, twin, length, num_walks
        )

    def num_shards(self, num_walks: int) -> int:
        """How many shards a bundle of ``num_walks`` walks spans."""
        return -(-int(num_walks) // self.shard_size)

    def world_keys(self, vertex_index: int, twin: bool, num_walks: int) -> np.ndarray:
        """All ``num_walks`` world keys of one endpoint, shard by shard."""
        return endpoint_world_keys(
            self.seed, vertex_index, twin, num_walks, self.shard_size
        )

    # -- sampling -------------------------------------------------------------

    def sample_bundle(
        self,
        csr: CSRGraph,
        vertex_index: int,
        length: int,
        num_walks: int,
        twin: bool = False,
    ) -> np.ndarray:
        """One endpoint's ``(num_walks, length + 1)`` bundle."""
        return self.sample_bundles(
            csr, [(vertex_index, twin)], length, num_walks
        )[(int(vertex_index), bool(twin))]

    def sample_bundles(
        self,
        csr: CSRGraph,
        requests: Sequence[BundleRequest],
        length: int,
        num_walks: int,
    ) -> Dict[BundleRequest, np.ndarray]:
        """Walk bundles for many endpoints, sharded across the worker pool.

        ``requests`` are ``(vertex_index, twin)`` pairs (duplicates collapse).
        All requested bundles are assembled from ``ceil(num_walks /
        shard_size)`` shards each; the full shard list of the batch is spread
        over the pool.  Returns ``{(vertex_index, twin): matrix}``.
        """
        if num_walks < 1:
            raise InvalidParameterError(f"num_walks must be >= 1, got {num_walks}")
        needs = [
            (int(vertex_index), bool(twin), int(num_walks))
            for vertex_index, twin in requests
        ]
        mixed = self.sample_bundles_mixed(csr, needs, length)
        return {
            (vertex_index, twin): matrix
            for (vertex_index, twin, _), matrix in mixed.items()
        }

    def sample_bundles_mixed(
        self,
        csr: CSRGraph,
        needs: Sequence[BundleNeed],
        length: int,
    ) -> Dict[BundleNeed, np.ndarray]:
        """Walk bundles for endpoints with *per-endpoint* walk counts.

        ``needs`` are ``(vertex_index, twin, num_walks)`` triples (duplicates
        collapse); bundles of different walk counts share one flat shard
        list — and therefore one keyed sweep per worker task — instead of a
        sweep per distinct count.  Each bundle's rows are a pure function of
        its world keys, so mixing counts in a batch never changes results.
        Returns ``{(vertex_index, twin, num_walks): matrix}``.
        """
        if self._fail_hook is not None:
            self._fail_hook()
        unique: List[BundleNeed] = []
        seen = set()
        for vertex_index, twin, num_walks in needs:
            if num_walks < 1:
                raise InvalidParameterError(
                    f"num_walks must be >= 1, got {num_walks}"
                )
            need = (int(vertex_index), bool(twin), int(num_walks))
            if need not in seen:
                seen.add(need)
                unique.append(need)
        if not unique:
            return {}

        # One flat work list: each unit is one shard of one need.
        units: List[Tuple[BundleNeed, int, int]] = []  # (need, shard, size)
        for need in unique:
            num_walks = need[2]
            for shard in range(self.num_shards(num_walks)):
                start = shard * self.shard_size
                size = min(self.shard_size, num_walks - start)
                units.append((need, shard, size))

        def pack(block: Sequence[Tuple[BundleNeed, int, int]]):
            sources = np.concatenate(
                [np.full(size, need[0], dtype=np.int64) for need, _, size in block]
            )
            keys = np.concatenate(
                [
                    shard_world_keys(self.seed, need[0], need[1], shard, size)
                    for need, shard, size in block
                ]
            )
            return sources, keys

        if self.executor == "serial" or self.num_workers == 1 or len(units) == 1:
            sources, keys = pack(units)
            matrices = [
                sample_walk_matrix_keyed(
                    csr, sources, length, keys, kernel=self.kernel
                )
            ]
            blocks = [units]
        else:
            # Spread the units over ~2 tasks per worker for load balance; the
            # grouping affects scheduling only — every walk's content is fixed
            # by its world key.
            task_count = min(len(units), self.num_workers * 2)
            blocks = [list(block) for block in np.array_split(np.arange(len(units)), task_count)]
            blocks = [[units[i] for i in block] for block in blocks if len(block)]
            if self.executor == "thread":
                pool = self._thread_pool()
                futures = []
                for block in blocks:
                    sources, keys = pack(block)
                    futures.append(
                        pool.submit(
                            sample_walk_matrix_keyed,
                            csr,
                            sources,
                            length,
                            keys,
                            kernel=self.kernel,
                        )
                    )
                matrices = [future.result() for future in futures]
            else:
                # Hold the pool lock across submit + drain: another epoch's
                # batch must not re-initialize the pool out from under us.
                with self._pool_lock:
                    pool = self._process_pool_locked(csr)
                    futures = []
                    for block in blocks:
                        sources, keys = pack(block)
                        futures.append(
                            pool.submit(
                                _process_task, sources, keys, length, self.kernel
                            )
                        )
                    matrices = [future.result() for future in futures]

        # Reassemble: walk rows come back in unit order within each block.
        pieces: Dict[BundleNeed, List[np.ndarray]] = {need: [] for need in unique}
        for block, matrix in zip(blocks, matrices):
            offset = 0
            for need, _, size in block:
                pieces[need].append(matrix[offset : offset + size])
                offset += size
        return {
            need: np.concatenate(piece_list, axis=0)
            for need, piece_list in pieces.items()
        }
