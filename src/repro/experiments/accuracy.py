"""E4 — Relative error of the approximate algorithms (Fig. 10).

The exact SimRank value is unavailable in closed form, so — exactly like the
paper — the Baseline result is used as the reference ``s*`` and the error of a
tested algorithm producing ``s`` is ``|s − s*| / s*``, averaged over random
vertex pairs.  The paper's findings: Sampling sits around 10% relative error,
SR-TS and SR-SP around 1%, and the error drops as the exact prefix ``l``
grows.

Every estimate runs through :class:`~repro.core.engine.SimRankEngine` — the
executors that serve production traffic — one engine per dataset, seeded
from the harness seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.engine import SimRankEngine
from repro.core.transition import WalkExplosionError
from repro.datasets.registry import load_dataset
from repro.experiments.report import format_table
from repro.graph.generators import related_vertex_pairs
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.stats import relative_error


@dataclass
class AccuracyResult:
    """Average relative error per algorithm for one dataset."""

    dataset: str
    errors: Dict[str, float] = field(default_factory=dict)
    pairs_evaluated: int = 0


def algorithm_labels(prefixes: Sequence[int]) -> List[str]:
    """Column labels in the order Fig. 10 lists the algorithms."""
    labels = ["Sampling"]
    labels.extend(f"SR-TS(l={l})" for l in prefixes)
    labels.extend(f"SR-SP(l={l})" for l in prefixes)
    return labels


def run_accuracy_experiment(
    datasets: Sequence[str] = ("ppi2", "net", "ppi1"),
    num_pairs: int = 15,
    decay: float = 0.6,
    iterations: int = 4,
    num_walks: int = 500,
    prefixes: Sequence[int] = (1, 2, 3),
    seed: RandomState = 37,
    max_states: int = 400_000,
) -> List[AccuracyResult]:
    """Run E4: average relative error against the Baseline reference.

    Pairs on which the Baseline reference itself cannot be computed (walk
    explosion) or whose reference similarity is zero are skipped.
    """
    generator = ensure_rng(seed)
    results: List[AccuracyResult] = []
    for name in datasets:
        graph = load_dataset(name)
        pairs = related_vertex_pairs(graph, num_pairs, rng=generator)
        engine = SimRankEngine(
            graph, decay=decay, iterations=iterations, num_walks=num_walks, seed=generator
        )
        labels = algorithm_labels(prefixes)
        totals: Dict[str, float] = {label: 0.0 for label in labels}
        evaluated = 0

        for u, v in pairs:
            try:
                reference = engine.similarity(
                    u, v, method="baseline", max_states=max_states
                ).score
            except WalkExplosionError:
                continue
            if reference <= 0.0:
                continue
            evaluated += 1

            estimate = engine.similarity(u, v, method="sampling").score
            totals["Sampling"] += relative_error(estimate, reference)

            for exact_prefix in prefixes:
                for method, label in (("two_phase", "SR-TS"), ("speedup", "SR-SP")):
                    estimate = engine.similarity(
                        u, v, method=method, exact_prefix=exact_prefix
                    ).score
                    totals[f"{label}(l={exact_prefix})"] += relative_error(
                        estimate, reference
                    )

        result = AccuracyResult(dataset=name, pairs_evaluated=evaluated)
        for label in labels:
            result.errors[label] = totals[label] / evaluated if evaluated else float("nan")
        results.append(result)
    return results


def format_accuracy_results(
    results: Sequence[AccuracyResult], prefixes: Sequence[int] = (1, 2, 3)
) -> str:
    """Render the Fig. 10 analogue (average relative error per algorithm)."""
    labels = algorithm_labels(prefixes)
    headers = ("dataset", "pairs", *labels)
    rows = []
    for result in results:
        rows.append(
            (
                result.dataset,
                result.pairs_evaluated,
                *[result.errors.get(label, float("nan")) for label in labels],
            )
        )
    return format_table(headers, rows)
