"""E5 — Effect of the sample size ``N`` (Fig. 11).

On the Condmat analogue the experiment sweeps the number of sampled walks
``N`` and measures, for SR-TS and SR-SP with ``l = 1``, the average execution
time and the average relative error against the Baseline reference.  Expected
shape: time grows roughly linearly (sub-linearly for SR-SP thanks to the
shared bit-vector propagation), error decreases with ``N`` and flattens once
``N`` reaches about 1000.

Every query runs through one :class:`~repro.core.engine.SimRankEngine`
seeded from the harness seed; the SR-SP filter vectors of each ``N`` are
built offline, before its timed loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.engine import SimRankEngine
from repro.core.transition import WalkExplosionError
from repro.datasets.registry import load_dataset
from repro.experiments.efficiency import time_query
from repro.experiments.report import format_table
from repro.graph.generators import related_vertex_pairs
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.stats import relative_error


@dataclass
class ParamNResult:
    """Execution time and relative error per sample size for one algorithm."""

    dataset: str
    algorithm: str
    sample_sizes: List[int] = field(default_factory=list)
    times_ms: List[float] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)


def run_param_n_experiment(
    dataset: str = "condmat",
    sample_sizes: Sequence[int] = (125, 250, 500, 1000, 2000),
    num_pairs: int = 8,
    decay: float = 0.6,
    iterations: int = 4,
    exact_prefix: int = 1,
    seed: RandomState = 41,
    max_states: int = 400_000,
) -> List[ParamNResult]:
    """Run E5 and return one result series per algorithm (SR-TS, SR-SP)."""
    generator = ensure_rng(seed)
    graph = load_dataset(dataset)
    pairs = related_vertex_pairs(graph, num_pairs, rng=generator)
    engine = SimRankEngine(
        graph, decay=decay, iterations=iterations, exact_prefix=exact_prefix,
        seed=generator,
    )

    # Baseline references (pairs that explode or have zero similarity are dropped).
    references: List[Tuple[object, object, float]] = []
    for u, v in pairs:
        try:
            score = engine.similarity(
                u, v, method="baseline", max_states=max_states
            ).score
        except WalkExplosionError:
            continue
        if score > 0.0:
            references.append((u, v, score))

    sr_ts = ParamNResult(dataset=dataset, algorithm="SR-TS")
    sr_sp = ParamNResult(dataset=dataset, algorithm="SR-SP")
    for num_walks in sample_sizes:
        engine.caches.filter_pair(num_walks)  # the offline SR-SP build, untimed
        totals = {"SR-TS": [0.0, 0.0], "SR-SP": [0.0, 0.0]}  # [time, error]
        for u, v, reference in references:
            for method, key in (("two_phase", "SR-TS"), ("speedup", "SR-SP")):
                result, elapsed = time_query(
                    engine, u, v, method, num_walks=num_walks
                )
                totals[key][0] += elapsed
                totals[key][1] += relative_error(result.score, reference)

        count = max(len(references), 1)
        for series, key in ((sr_ts, "SR-TS"), (sr_sp, "SR-SP")):
            series.sample_sizes.append(num_walks)
            series.times_ms.append(1000.0 * totals[key][0] / count)
            series.errors.append(totals[key][1] / count)
    return [sr_ts, sr_sp]


def format_param_n_results(results: Sequence[ParamNResult]) -> str:
    """Render the Fig. 11 analogue (time and error vs N)."""
    headers = ("dataset", "algorithm", "N", "time (ms)", "relative error")
    rows = []
    for series in results:
        for position, num_walks in enumerate(series.sample_sizes):
            rows.append(
                (
                    series.dataset,
                    series.algorithm,
                    num_walks,
                    series.times_ms[position],
                    series.errors[position],
                )
            )
    return format_table(headers, rows)
