"""Keyed sweep kernel acceptance pins: fused speedup + bit-identity.

The fused :class:`~repro.core.kernels.NumpyKernel` must beat the
:class:`~tests.kernel_oracle.ReferenceKernel` step loop by ~2x
single-threaded on the Fig. 12 sweep graphs while sampling bit-identical
walk matrices.  The measured ratio lands in ``extra_info`` — exported as
``BENCH_kernels.json`` by the CI bench job — and the assertion is a
noise-headroom floor below the expected value, following the other ratio
benchmarks in this suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.kernels import NumpyKernel
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_uncertain

from bench_config import QUICK, SWEEP_GRAPH_SIZE
from tests.kernel_oracle import ReferenceKernel

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

    def total(kernel) -> float:
        return sum(
            best_of(5, lambda: kernel.sample(sweep_csr, sources, length, keys))
            for length in (ITERATIONS, LONG_WALK)
        )

    def compare() -> float:
        return total(ReferenceKernel()) / total(NumpyKernel())

    ratio = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["numpy_kernel_speedup"] = ratio
    benchmark.extra_info["rows"] = ROWS
    assert ratio >= 1.4


@pytest.mark.paper_artifact("kernel-bit-identity")
def test_bench_kernels_bit_identical_at_bench_scale(sweep_csr, keyed_request):
    """The fused kernel samples the exact reference walk matrices.

    Run at the benchmark scale (not the unit-test scale) so the chunked
    paths, the dense/ragged split, and the scratch reuse are all exercised
    on the shapes the speedup is claimed for.
    """
    sources, keys = keyed_request
    for length in (ITERATIONS, LONG_WALK):
        expected = ReferenceKernel().sample(sweep_csr, sources, length, keys)
        got = NumpyKernel().sample(sweep_csr, sources, length, keys)
        assert np.array_equal(got, expected), length
