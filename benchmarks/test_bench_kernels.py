"""Kernel-backend acceptance pins: fused numpy speedup + numba thread scaling.

The fused numpy kernel of :mod:`repro.core.kernels` must beat the reference
step loop by ~2x single-threaded on the Fig. 12 sweep graphs while sampling
bit-identical walk matrices; the optional numba kernel (exercised by the CI
leg that installs numba) must additionally scale across threads.  The
measured ratios land in ``extra_info`` — exported as ``BENCH_kernels.json``
by the CI leg — and the assertions are noise-headroom floors below the
expected values, following the other ratio benchmarks in this suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.batch_walks import sample_walk_matrix_keyed
from repro.core.kernels import available_kernels, resolve_kernel
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_uncertain

from bench_config import QUICK, SWEEP_GRAPH_SIZE

#: Walk length of the paper's default query depth (matches the core suite).
ITERATIONS = 4
#: A longer sweep so per-sweep setup cost doesn't dominate the ratio.
LONG_WALK = 11

ROWS = 20_000 if QUICK else 60_000


@pytest.fixture(scope="module")
def sweep_csr():
    num_vertices, num_edges = SWEEP_GRAPH_SIZE
    return CSRGraph.from_uncertain(rmat_uncertain(num_vertices, num_edges, rng=43))


@pytest.fixture(scope="module")
def keyed_request(sweep_csr):
    rng = np.random.default_rng(11)
    sources = rng.integers(0, sweep_csr.num_vertices, size=ROWS).astype(np.int64)
    keys = rng.integers(0, 2**64, size=ROWS, dtype=np.uint64)
    return sources, keys


def best_of(repeats: int, sample) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        sample()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.paper_artifact("kernel-numpy-speedup")
def test_bench_numpy_kernel_speedup(benchmark, sweep_csr, keyed_request):
    """Tentpole pin: the fused numpy kernel is ~2x the reference loop.

    Measured single-threaded over both walk lengths of the core suite on the
    Fig. 12 sweep graph (best-of-5 per length, summed so neither length
    dominates).  Expected ~2.0 at the quick scale and 2-3x at full scale on
    an unloaded machine; the assertion floor keeps ~30% noise head-room, the
    same policy as the chunk-heuristic pin.
    """
    sources, keys = keyed_request

    def total(kernel: str) -> float:
        return sum(
            best_of(
                5,
                lambda: sample_walk_matrix_keyed(
                    sweep_csr, sources, length, keys, kernel=kernel
                ),
            )
            for length in (ITERATIONS, LONG_WALK)
        )

    def compare() -> float:
        return total("reference") / total("numpy")

    ratio = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["numpy_kernel_speedup"] = ratio
    benchmark.extra_info["rows"] = ROWS
    assert ratio >= 1.4


@pytest.mark.paper_artifact("kernel-bit-identity")
def test_bench_kernels_bit_identical_at_bench_scale(sweep_csr, keyed_request):
    """Every available backend samples the exact reference walk matrices.

    Run at the benchmark scale (not the unit-test scale) so the chunked
    paths, the dense/ragged split, and the scratch reuse are all exercised
    on the shapes the speedup is claimed for.
    """
    sources, keys = keyed_request
    for length in (ITERATIONS, LONG_WALK):
        expected = sample_walk_matrix_keyed(
            sweep_csr, sources, length, keys, kernel="reference"
        )
        for kernel in available_kernels():
            got = sample_walk_matrix_keyed(
                sweep_csr, sources, length, keys, kernel=kernel
            )
            assert np.array_equal(got, expected), (kernel, length)


@pytest.mark.paper_artifact("kernel-numba-scaling")
def test_bench_numba_thread_scaling(benchmark, sweep_csr, keyed_request):
    """Optional-CI pin: the nogil numba kernel scales >= 2x at 4 threads.

    Skipped where numba is absent (the default container); the CI leg that
    installs numba runs it and exports the scaling curve.  The first call
    pays JIT compilation, so the kernel is warmed before timing.
    """
    numba = pytest.importorskip("numba")
    sources, keys = keyed_request
    kernel = resolve_kernel("numba")

    def run():
        return kernel.sample(sweep_csr, sources, LONG_WALK, keys)

    run()  # warm the JIT cache outside the timed region

    def timed_with_threads(threads: int) -> float:
        numba.set_num_threads(threads)
        try:
            return best_of(5, run)
        finally:
            numba.set_num_threads(numba.config.NUMBA_NUM_THREADS)

    def compare() -> float:
        return timed_with_threads(1) / timed_with_threads(4)

    scaling = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["numba_thread_scaling_4"] = scaling
    expected = sample_walk_matrix_keyed(
        sweep_csr, sources, LONG_WALK, keys, kernel="reference"
    )
    assert np.array_equal(run(), expected)
    assert scaling >= 2.0
