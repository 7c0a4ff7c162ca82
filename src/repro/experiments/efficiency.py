"""E3 — Execution time of the four algorithms (Fig. 9).

For random vertex pairs on each dataset the experiment measures the average
single-pair execution time of

* **Baseline** — exact meeting probabilities,
* **Sampling** — plain Monte-Carlo walks,
* **SR-TS(l)** — two-phase with exact prefix ``l`` and per-walk sampling,
* **SR-SP(l)** — two-phase with exact prefix ``l`` and bit-vector sampling,

for ``l = 1, 2, 3``.  The paper's qualitative findings that the harness aims
to reproduce: Baseline degrades badly on large/dense graphs, the sampling
methods are insensitive to graph size (only to density), and SR-SP is much
faster than SR-TS thanks to the shared sampling.

The Baseline column reports ``NaN`` (and is skipped) when the exact walk
extension exceeds its state budget on a dataset — the Python analogue of the
paper's observation that the exact algorithm stops being practical.

Every query runs through :class:`~repro.core.engine.SimRankEngine` — the
executors that serve production traffic — one engine per dataset, seeded
from the harness seed.  As in the paper, the SR-SP filter vectors are built
offline, before the timed loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.core.engine import SimRankEngine
from repro.core.simrank import SimRankResult
from repro.core.transition import WalkExplosionError
from repro.datasets.registry import load_dataset
from repro.experiments.report import format_table
from repro.graph.generators import random_vertex_pairs
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.timer import time_call


@dataclass
class EfficiencyResult:
    """Average execution time (milliseconds) per algorithm for one dataset."""

    dataset: str
    times_ms: Dict[str, float] = field(default_factory=dict)


def time_query(
    engine: SimRankEngine, u: Hashable, v: Hashable, method: str, **overrides: object
) -> Tuple[SimRankResult, float]:
    """One pair query through the engine and its wall-clock time in seconds.

    The engine's cross-query transition cache and SR-SP table store are
    emptied first, so every timed query pays for its own exact prefix and
    propagation, as a single-pair query in the paper does; offline artifacts
    (SR-SP filter vectors, α values) stay warm.
    """
    engine.caches.transitions.clear()
    engine.caches.speedup_tables.clear()
    return time_call(engine.similarity, u, v, method=method, **overrides)


def algorithm_labels(prefixes: Sequence[int]) -> List[str]:
    """Column labels in the order Fig. 9 lists the algorithms."""
    labels = ["Baseline", "Sampling"]
    labels.extend(f"SR-TS(l={l})" for l in prefixes)
    labels.extend(f"SR-SP(l={l})" for l in prefixes)
    return labels


def run_efficiency_experiment(
    datasets: Sequence[str] = ("ppi2", "condmat", "ppi3", "dblp"),
    num_pairs: int = 8,
    decay: float = 0.6,
    iterations: int = 4,
    num_walks: int = 500,
    prefixes: Sequence[int] = (1, 2, 3),
    seed: RandomState = 31,
    baseline_max_states: int = 300_000,
    include_baseline: bool = True,
) -> List[EfficiencyResult]:
    """Run E3 and return the average per-pair execution times."""
    generator = ensure_rng(seed)
    results: List[EfficiencyResult] = []
    for name in datasets:
        graph = load_dataset(name)
        pairs = random_vertex_pairs(graph, num_pairs, rng=generator)
        engine = SimRankEngine(
            graph, decay=decay, iterations=iterations, num_walks=num_walks, seed=generator
        )
        engine.caches.filter_pair(num_walks)  # the offline SR-SP build, untimed
        totals: Dict[str, float] = {label: 0.0 for label in algorithm_labels(prefixes)}
        baseline_failed = not include_baseline

        for u, v in pairs:
            if not baseline_failed:
                try:
                    _, elapsed = time_query(
                        engine, u, v, "baseline", max_states=baseline_max_states
                    )
                    totals["Baseline"] += elapsed
                except WalkExplosionError:
                    baseline_failed = True

            _, elapsed = time_query(engine, u, v, "sampling")
            totals["Sampling"] += elapsed

            for exact_prefix in prefixes:
                _, elapsed = time_query(
                    engine, u, v, "two_phase", exact_prefix=exact_prefix
                )
                totals[f"SR-TS(l={exact_prefix})"] += elapsed
                _, elapsed = time_query(engine, u, v, "speedup", exact_prefix=exact_prefix)
                totals[f"SR-SP(l={exact_prefix})"] += elapsed

        result = EfficiencyResult(dataset=name)
        for label, total in totals.items():
            if label == "Baseline" and baseline_failed:
                result.times_ms[label] = math.nan
            else:
                result.times_ms[label] = 1000.0 * total / num_pairs
        results.append(result)
    return results


def format_efficiency_results(
    results: Sequence[EfficiencyResult], prefixes: Sequence[int] = (1, 2, 3)
) -> str:
    """Render the Fig. 9 analogue (average milliseconds per query)."""
    labels = algorithm_labels(prefixes)
    headers = ("dataset", *labels)
    rows: List[Tuple[object, ...]] = []
    for result in results:
        rows.append((result.dataset, *[result.times_ms.get(label, math.nan) for label in labels]))
    return format_table(headers, rows, precision=2)
