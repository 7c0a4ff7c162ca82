"""E6 — Scalability with respect to graph size (Fig. 12).

The paper generates R-MAT uncertain graphs with 2M vertices and 2M–10M edges
(probabilities uniform in ``[0, 1]``) and shows that the execution time of
SR-TS and SR-SP grows roughly linearly with the edge count, because the
per-query cost of both algorithms is driven by the graph density.  The
analogue here sweeps R-MAT graphs at laptop scale (fixed vertex count, edge
count swept) and records the same two series.  Every query runs through one
:class:`~repro.core.engine.SimRankEngine` per graph, seeded from the harness
seed, with the SR-SP filter vectors built offline before the timed loop.

:func:`run_service_topk_experiment` extends the sweep to the serving layer:
on the same R-MAT graphs it compares a per-pair query loop (one
``engine.similarity`` call per candidate, the pre-service top-k evaluation)
against batched top-k-for-vertex queries through
:class:`~repro.service.service.SimilarityService`, where all candidate
bundles of a query are sampled in one sharded sweep and persist in the
bundle store across queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.engine import SimRankEngine
from repro.experiments.efficiency import time_query
from repro.experiments.report import format_table
from repro.graph.generators import random_vertex_pairs, rmat_uncertain
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.timer import time_call


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


@dataclass
class ServiceTopKResult:
    """Per-pair loop vs batched service top-k times for one graph size."""

    edge_count: int
    realized_edges: int
    num_queries: int
    num_candidates: int
    per_pair_ms: float
    service_ms: float

    @property
    def speedup(self) -> float:
        """How many times faster the batched service answered the workload."""
        return self.per_pair_ms / self.service_ms if self.service_ms else float("inf")


def run_service_topk_experiment(
    num_vertices: int = 600,
    edge_counts: Sequence[int] = (1500, 4500, 7500),
    num_queries: int = 3,
    num_candidates: int = 150,
    k: int = 10,
    decay: float = 0.6,
    iterations: int = 4,
    num_walks: int = 1000,
    seed: int = 43,
    num_workers: int = 1,
    executor: str = "serial",
) -> List[ServiceTopKResult]:
    """Sustained top-k-for-vertex workload: per-pair loop vs batched service.

    For each graph size, ``num_queries`` different query vertices each ask
    for their top ``k`` among the same ``num_candidates`` candidate pool —
    the shape of the paper's similar-protein case study under sustained
    traffic.  The per-pair loop issues one fresh ``similarity()`` call per
    (query, candidate) pair, resampling both walk bundles every time; the
    service samples each unique endpoint once into the bundle store and
    reuses it across all queries.
    """
    from repro.service.service import SimilarityService, TopKVertexQuery

    generator = ensure_rng(seed)
    results: List[ServiceTopKResult] = []
    for num_edges in edge_counts:
        graph = rmat_uncertain(num_vertices, num_edges, rng=generator)
        vertices = graph.vertices()
        queries = vertices[:num_queries]
        candidates = vertices[num_queries : num_queries + num_candidates]

        engine = SimRankEngine(
            graph, decay=decay, iterations=iterations, num_walks=num_walks, seed=seed
        )

        def per_pair_loop() -> None:
            for query in queries:
                scored = [
                    (
                        candidate,
                        engine.similarity(query, candidate, method="sampling").score,
                    )
                    for candidate in candidates
                ]
                scored.sort(key=lambda item: item[1], reverse=True)
                del scored[k:]

        _, per_pair_s = time_call(per_pair_loop)

        with SimilarityService(
            graph,
            decay=decay,
            iterations=iterations,
            num_walks=num_walks,
            seed=seed,
            num_workers=num_workers,
            executor=executor,
        ) as service:

            def batched() -> None:
                futures = [
                    service.submit(TopKVertexQuery(query, k, tuple(candidates)))
                    for query in queries
                ]
                for future in futures:
                    future.result()

            _, service_s = time_call(batched)

        results.append(
            ServiceTopKResult(
                edge_count=num_edges,
                realized_edges=graph.num_arcs,
                num_queries=num_queries,
                num_candidates=len(candidates),
                per_pair_ms=1000.0 * per_pair_s,
                service_ms=1000.0 * service_s,
            )
        )
    return results


def format_service_topk_results(results: Sequence[ServiceTopKResult]) -> str:
    """Render the service-vs-loop sweep (time per workload vs |E|)."""
    headers = (
        "requested |E|",
        "realised |E|",
        "queries",
        "candidates",
        "per-pair loop (ms)",
        "batched service (ms)",
        "speedup",
    )
    rows = [
        (
            result.edge_count,
            result.realized_edges,
            result.num_queries,
            result.num_candidates,
            result.per_pair_ms,
            result.service_ms,
            result.speedup,
        )
        for result in results
    ]
    return format_table(headers, rows, precision=2)


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
