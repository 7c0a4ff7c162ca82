"""E6 — Scalability with respect to graph size (Fig. 12).

The paper generates R-MAT uncertain graphs with 2M vertices and 2M–10M edges
(probabilities uniform in ``[0, 1]``) and shows that the execution time of
SR-TS and SR-SP grows roughly linearly with the edge count, because the
per-query cost of both algorithms is driven by the graph density.  The
analogue here sweeps R-MAT graphs at laptop scale (fixed vertex count, edge
count swept) and records the same two series.  Every query runs through one
:class:`~repro.core.engine.SimRankEngine` per graph, seeded from the harness
seed, with the SR-SP filter vectors built offline before the timed loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.engine import SimRankEngine
from repro.experiments.efficiency import time_query
from repro.experiments.report import format_table
from repro.graph.generators import random_vertex_pairs, rmat_uncertain
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class ScalabilityResult:
    """Average execution time per edge count for one algorithm."""

    algorithm: str
    edge_counts: List[int] = field(default_factory=list)
    realized_edges: List[int] = field(default_factory=list)
    times_ms: List[float] = field(default_factory=list)


def run_scalability_experiment(
    num_vertices: int = 600,
    edge_counts: Sequence[int] = (1500, 3000, 4500, 6000, 7500),
    num_pairs: int = 6,
    decay: float = 0.6,
    iterations: int = 4,
    exact_prefix: int = 1,
    num_walks: int = 400,
    seed: RandomState = 43,
) -> List[ScalabilityResult]:
    """Run E6: SR-TS / SR-SP execution time on R-MAT graphs of growing size."""
    generator = ensure_rng(seed)
    sr_ts = ScalabilityResult(algorithm="SR-TS")
    sr_sp = ScalabilityResult(algorithm="SR-SP")
    for num_edges in edge_counts:
        graph = rmat_uncertain(num_vertices, num_edges, rng=generator)
        pairs = random_vertex_pairs(graph, num_pairs, rng=generator)
        engine = SimRankEngine(
            graph, decay=decay, iterations=iterations, num_walks=num_walks,
            exact_prefix=exact_prefix, seed=generator,
        )
        engine.caches.filter_pair(num_walks)  # the offline SR-SP build, untimed
        totals: Dict[str, float] = {"SR-TS": 0.0, "SR-SP": 0.0}
        for u, v in pairs:
            for method, key in (("two_phase", "SR-TS"), ("speedup", "SR-SP")):
                _, elapsed = time_query(engine, u, v, method)
                totals[key] += elapsed
        for series, key in ((sr_ts, "SR-TS"), (sr_sp, "SR-SP")):
            series.edge_counts.append(num_edges)
            series.realized_edges.append(graph.num_arcs)
            series.times_ms.append(1000.0 * totals[key] / num_pairs)
    return [sr_ts, sr_sp]


def format_scalability_results(results: Sequence[ScalabilityResult]) -> str:
    """Render the Fig. 12 analogue (time vs |E|)."""
    headers = ("algorithm", "requested |E|", "realised |E|", "time (ms)")
    rows = []
    for series in results:
        for position, edges in enumerate(series.edge_counts):
            rows.append(
                (
                    series.algorithm,
                    edges,
                    series.realized_edges[position],
                    series.times_ms[position],
                )
            )
    return format_table(headers, rows, precision=2)
