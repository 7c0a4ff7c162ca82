"""Micro-benchmarks of the four SimRank algorithms on one dataset.

These are the per-query building blocks of Fig. 9: the wall-clock time of a
single similarity query with Baseline, Sampling, SR-TS and SR-SP on the
Net-like analogue dataset, through the engine's executors (the code that
serves).  The engine is shared across rounds, so offline artifacts (α
values, SR-SP filter vectors) stay warm as in the paper.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.batch_walks import sample_walk_matrix_keyed
from repro.core.engine import SimRankEngine
from repro.core.kernels import NUMPY_CHUNK_ROWS
from repro.core.speedup import FilterVectors
from repro.datasets.registry import load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.generators import random_vertex_pairs, related_vertex_pairs, rmat_uncertain

from bench_config import BENCH_NUM_WALKS, QUICK, SWEEP_GRAPH_SIZE

ITERATIONS = 4
NUM_WALKS = 300


@pytest.fixture(scope="module")
def net_graph():
    return load_dataset("net")


@pytest.fixture(scope="module")
def query_pair(net_graph):
    return related_vertex_pairs(net_graph, 1, rng=5)[0]


@pytest.fixture(scope="module")
def net_engine(net_graph):
    engine = SimRankEngine(net_graph, iterations=ITERATIONS, num_walks=NUM_WALKS, seed=7)
    engine.caches.filter_pair(NUM_WALKS)  # the offline SR-SP build, untimed
    return engine


def _cold_query(engine: SimRankEngine, u, v, method: str, **overrides):
    # Each round pays for its own exact stage and SR-SP propagation, like a
    # fresh single-pair query.
    engine.caches.transitions.clear()
    engine.caches.speedup_tables.clear()
    return engine.similarity(u, v, method=method, **overrides)


@pytest.mark.paper_artifact("fig9-baseline")
def test_bench_baseline_single_query(benchmark, net_engine, query_pair):
    u, v = query_pair
    result = benchmark(_cold_query, net_engine, u, v, "baseline")
    assert 0.0 <= result.score <= 1.0


@pytest.mark.paper_artifact("fig9-sampling")
def test_bench_sampling_single_query(benchmark, net_engine, query_pair):
    u, v = query_pair
    result = benchmark(_cold_query, net_engine, u, v, "sampling")
    assert 0.0 <= result.score <= 1.0


@pytest.mark.paper_artifact("fig9-sr-ts")
def test_bench_two_phase_single_query(benchmark, net_engine, query_pair):
    u, v = query_pair
    result = benchmark(_cold_query, net_engine, u, v, "two_phase", exact_prefix=1)
    assert 0.0 <= result.score <= 1.0


@pytest.mark.paper_artifact("fig9-sr-sp")
def test_bench_speedup_single_query(benchmark, net_engine, query_pair):
    u, v = query_pair
    result = benchmark(_cold_query, net_engine, u, v, "speedup", exact_prefix=1)
    assert 0.0 <= result.score <= 1.0


@pytest.mark.paper_artifact("fig9-offline-filters")
def test_bench_filter_vector_construction(benchmark, net_graph):
    """The offline step of SR-SP: building the per-arc filter vectors."""
    filters = benchmark(FilterVectors, net_graph, NUM_WALKS, 11)
    assert len(filters) > 0


# -- batched sampling on the scalability-sweep generator graphs ---------------


@pytest.fixture(scope="module")
def sweep_graph():
    """An R-MAT graph from the Fig. 12 scalability sweep (smallest in quick mode)."""
    graph = rmat_uncertain(*SWEEP_GRAPH_SIZE, rng=43)
    CSRGraph.from_uncertain(graph)  # warm the snapshot cache
    return graph


@pytest.mark.paper_artifact("keyed-chunk-heuristic")
def test_bench_keyed_chunk_heuristic_no_regression(benchmark):
    """Pin: the chunk size the keyed sweep runs by default
    (:data:`~repro.core.kernels.NUMPY_CHUNK_ROWS`) never loses to the
    2048-row chunks it grew from.

    Sparse short-walk sweeps used to serialize on tiny chunks — each chunk
    pays the Python-level step-loop overhead, and with few steps and few
    live rows that overhead dominates the vectorized work.  A keyed-rejection
    try touches one arc per row, so the per-row working set does not grow
    with the degree and one larger chunk size serves sparse and dense graphs
    alike.  The assertion is a no-regression floor (with noise head-room);
    the measured ratio lands in ``extra_info``.
    """
    # The smallest Fig. 12 sweep graph: sparse (average degree ~2.5), the
    # shape where the fixed chunk size serialized hardest.
    graph = rmat_uncertain(600, 1500, rng=43)
    csr = CSRGraph.from_uncertain(graph)
    length = 2
    small_chunk = 2048
    assert NUMPY_CHUNK_ROWS > small_chunk
    rng = np.random.default_rng(11)
    count = 20_000 if QUICK else 60_000
    sources = rng.integers(0, csr.num_vertices, size=count).astype(np.int64)
    keys = rng.integers(0, 2**64, size=count, dtype=np.uint64)

    def timed(chunk_rows) -> float:
        start = time.perf_counter()
        sample_walk_matrix_keyed(csr, sources, length, keys, chunk_rows=chunk_rows)
        return time.perf_counter() - start

    def compare() -> float:
        # Interleaved best-of-5: each sweep takes ~25 ms, so timing the two
        # sides back to back let a burst of machine noise land on one side.
        fixed = default = float("inf")
        for _ in range(5):
            fixed = min(fixed, timed(small_chunk))
            default = min(default, timed(None))  # NUMPY_CHUNK_ROWS
        return fixed / default

    ratio = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["chunk_heuristic_speedup"] = ratio
    # >= 1.0 modulo noise: the default must never regress the keyed sweep.
    assert ratio >= 0.8


@pytest.mark.paper_artifact("sampling-batched-many")
def test_bench_engine_similarity_many_batched(benchmark, sweep_graph):
    """Batched multi-pair sampling: walk bundles shared across pairs."""
    pairs = random_vertex_pairs(sweep_graph, 12, rng=9)
    engine = SimRankEngine(
        sweep_graph, iterations=ITERATIONS, num_walks=BENCH_NUM_WALKS, seed=13
    )
    results = benchmark.pedantic(
        engine.similarity_many, args=(pairs,), kwargs={"method": "sampling"},
        rounds=1, iterations=1,
    )
    assert len(results) == len(pairs)
    assert all(r.details.get("shared_bundles") for r in results)
