"""Ablation benchmarks for the estimator design decisions.

Every variant runs through the engine's executors (see docs/ARCHITECTURE.md).

1. Shared vs independent filter vectors in SR-SP (the paper reuses one filter
   set for both endpoints, which correlates the two walk bundles of a query;
   the executors default to independent sets).
2. Bit-vector propagation (SR-SP) vs per-walk sampling (Sampling / SR-TS) —
   the source of the paper's 1–2 orders of magnitude sampling speed-up.
3. The effect of the exact prefix length l on the error of SR-TS.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import baseline_simrank
from repro.core.engine import SimRankEngine, compute_simrank
from repro.datasets.registry import load_dataset
from repro.graph.generators import related_vertex_pairs

ITERATIONS = 4
NUM_WALKS = 400


@pytest.fixture(scope="module")
def graph():
    return load_dataset("net")


@pytest.fixture(scope="module")
def pair(graph):
    return related_vertex_pairs(graph, 1, rng=3)[0]


@pytest.fixture(scope="module")
def engine(graph):
    engine = SimRankEngine(graph, iterations=ITERATIONS, num_walks=NUM_WALKS, seed=5)
    engine.caches.filter_pair(NUM_WALKS)  # the offline SR-SP build, untimed
    return engine


@pytest.mark.paper_artifact("ablation-filters-independent")
def test_bench_speedup_independent_filters(benchmark, engine, pair):
    u, v = pair
    result = benchmark(
        engine.similarity, u, v, method="speedup", exact_prefix=0, shared_filters=False
    )
    assert all(0.0 <= m <= 1.0 for m in result.meeting_probabilities)


@pytest.mark.paper_artifact("ablation-filters-shared")
def test_bench_speedup_shared_filters(benchmark, engine, pair):
    u, v = pair
    result = benchmark(
        engine.similarity, u, v, method="speedup", exact_prefix=0, shared_filters=True
    )
    assert all(0.0 <= m <= 1.0 for m in result.meeting_probabilities)


@pytest.mark.paper_artifact("ablation-per-walk-sampling")
def test_bench_per_walk_sampling(benchmark, engine, pair):
    """The per-walk estimator that SR-SP's bit-vector propagation replaces."""
    u, v = pair
    result = benchmark(engine.similarity, u, v, method="sampling")
    assert all(0.0 <= m <= 1.0 for m in result.meeting_probabilities)


@pytest.mark.paper_artifact("ablation-shared-filter-bias")
def test_bench_shared_filter_estimator_bias(benchmark, graph, pair):
    """Quantify the estimator difference between shared and independent filters.

    Both variants are compared against the exact Baseline value over several
    repetitions; the recorded extra_info shows the mean absolute error of
    each, which documents the cost of the paper's shared-filter shortcut.
    """
    u, v = pair
    exact = baseline_simrank(graph, u, v, iterations=ITERATIONS).score

    def run():
        rng = np.random.default_rng(11)
        independent_errors, shared_errors = [], []
        for _ in range(5):
            for shared, bucket in ((False, independent_errors), (True, shared_errors)):
                result = compute_simrank(
                    graph, u, v, method="speedup",
                    iterations=ITERATIONS, exact_prefix=1, num_walks=NUM_WALKS,
                    seed=rng, shared_filters=shared,
                )
                bucket.append(abs(result.score - exact))
        return float(np.mean(independent_errors)), float(np.mean(shared_errors))

    independent_error, shared_error = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["independent_mean_abs_error"] = independent_error
    benchmark.extra_info["shared_mean_abs_error"] = shared_error
    assert independent_error < 0.2 and shared_error < 0.2


@pytest.mark.paper_artifact("ablation-exact-prefix")
def test_bench_exact_prefix_error_tradeoff(benchmark, graph, pair):
    """Corollary 1 in practice: error of SR-TS as the exact prefix grows."""
    u, v = pair
    exact = baseline_simrank(graph, u, v, iterations=ITERATIONS).score

    def run():
        rng = np.random.default_rng(13)
        samples = {prefix: [] for prefix in (0, 1, 2, 3)}
        for _ in range(10):
            engine = SimRankEngine(graph, iterations=ITERATIONS, num_walks=300, seed=rng)
            for prefix, bucket in samples.items():
                result = engine.similarity(u, v, method="two_phase", exact_prefix=prefix)
                bucket.append(abs(result.score - exact))
        return {prefix: float(np.mean(bucket)) for prefix, bucket in samples.items()}

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["mean_abs_error_by_prefix"] = errors
    # With the full prefix (l = n - 1) only m(n) is sampled, so the error must
    # be tiny in absolute terms and no worse than the all-sampled variant
    # beyond statistical noise.
    assert errors[3] < 0.05
    assert errors[3] <= errors[0] + 0.03
