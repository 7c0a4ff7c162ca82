"""Detecting proteins with similar biological functions (case study 1).

The paper's first case study ranks protein pairs of a PPI network by SimRank
similarity and checks how many of the top-20 pairs belong to a common protein
complex in the MIPS database.  Two rankings are compared:

* **USIM** — the paper's SimRank measure on the *uncertain* PPI network;
* **DSIM** — deterministic SimRank on the network with uncertainty removed.

Here the MIPS ground truth is replaced by the complexes planted by the
synthetic PPI generator (:func:`repro.graph.generators.planted_partition_ppi`,
since the MIPS database is not redistributable); the evaluation logic is otherwise
identical: a ranking is better when more of its top pairs share a complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.baselines.simrank_deterministic import deterministic_simrank_pair
from repro.core.engine import SimRankEngine
from repro.graph.generators import PPINetwork
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import RandomState


@dataclass(frozen=True)
class ProteinPairResult:
    """One ranked protein pair."""

    protein_a: str
    protein_b: str
    score: float
    same_complex: bool


def _candidate_pairs(
    network: PPINetwork, max_candidates: Optional[int]
) -> List[Tuple[str, str]]:
    """Protein pairs worth scoring: pairs at distance <= 2 in the network.

    Scoring every pair is quadratic; SimRank similarity of proteins with no
    common interaction partner is tiny, so candidates are restricted to pairs
    sharing at least one neighbour or interacting directly — the same pruning
    any practical tool applies.
    """
    graph = network.graph
    pairs = set()
    for vertex in graph.vertices():
        neighbors = sorted(set(graph.out_neighbors(vertex)))
        for a, b in combinations(neighbors, 2):
            pairs.add((a, b) if a <= b else (b, a))
        for neighbor in neighbors:
            pair = (vertex, neighbor) if vertex <= neighbor else (neighbor, vertex)
            pairs.add(pair)
    ordered = sorted(pairs)
    if max_candidates is not None and len(ordered) > max_candidates:
        ordered = ordered[:max_candidates]
    return ordered


def top_similar_protein_pairs(
    network: PPINetwork,
    k: int = 20,
    measure: str = "usim",
    method: str = "two_phase",
    num_walks: int = 400,
    iterations: int = 5,
    decay: float = 0.6,
    seed: RandomState = 7,
    max_candidates: Optional[int] = None,
    candidate_pairs: Optional[Iterable[Tuple[str, str]]] = None,
) -> List[ProteinPairResult]:
    """Top-``k`` most similar protein pairs under USIM or DSIM.

    Parameters
    ----------
    measure:
        ``"usim"`` — SimRank on the uncertain PPI network (the paper's
        measure); ``"dsim"`` — deterministic SimRank with uncertainty removed.
    method:
        Which uncertain-SimRank algorithm to use when ``measure="usim"``.
    candidate_pairs:
        Optional explicit candidate pairs; by default pairs at distance <= 2.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if measure not in ("usim", "dsim"):
        raise InvalidParameterError(f"measure must be 'usim' or 'dsim', got {measure!r}")
    pairs = (
        list(candidate_pairs)
        if candidate_pairs is not None
        else _candidate_pairs(network, max_candidates)
    )
    graph = network.graph
    scored: List[ProteinPairResult] = []
    if measure == "usim":
        engine = SimRankEngine(
            graph, decay=decay, iterations=iterations, num_walks=num_walks, seed=seed
        )
        for protein_a, protein_b in pairs:
            score = engine.similarity(protein_a, protein_b, method=method).score
            scored.append(
                ProteinPairResult(
                    protein_a,
                    protein_b,
                    score,
                    network.share_complex(protein_a, protein_b),
                )
            )
    else:
        deterministic = graph.to_deterministic()
        for protein_a, protein_b in pairs:
            score = deterministic_simrank_pair(
                deterministic, protein_a, protein_b, decay=decay, iterations=iterations
            )
            scored.append(
                ProteinPairResult(
                    protein_a,
                    protein_b,
                    score,
                    network.share_complex(protein_a, protein_b),
                )
            )
    scored.sort(key=lambda result: result.score, reverse=True)
    return scored[:k]


def top_similar_proteins_to(
    network: PPINetwork,
    query: str,
    k: int = 5,
    measure: str = "usim",
    method: str = "two_phase",
    num_walks: int = 400,
    iterations: int = 5,
    decay: float = 0.6,
    seed: RandomState = 7,
) -> List[Tuple[str, float]]:
    """Top-``k`` proteins most similar to ``query`` (Fig. 14 analogue).

    Candidates are the proteins within two interaction hops of the query.
    """
    graph = network.graph
    if not graph.has_vertex(query):
        raise InvalidParameterError(f"protein {query!r} is not in the network")
    candidates = set()
    for neighbor in graph.out_neighbors(query):
        candidates.add(neighbor)
        candidates.update(graph.out_neighbors(neighbor))
    candidates.discard(query)
    ordered = sorted(candidates)

    results: List[Tuple[str, float]] = []
    if measure == "usim":
        engine = SimRankEngine(
            graph, decay=decay, iterations=iterations, num_walks=num_walks, seed=seed
        )
        for protein in ordered:
            results.append((protein, engine.similarity(query, protein, method=method).score))
    else:
        deterministic = graph.to_deterministic()
        for protein in ordered:
            results.append(
                (
                    protein,
                    deterministic_simrank_pair(
                        deterministic, query, protein, decay=decay, iterations=iterations
                    ),
                )
            )
    results.sort(key=lambda item: item[1], reverse=True)
    return results[:k]


def complex_agreement(results: Sequence[ProteinPairResult]) -> float:
    """Fraction of ranked pairs that share a planted complex (Fig. 13 metric)."""
    if not results:
        raise InvalidParameterError("complex_agreement requires at least one ranked pair")
    return sum(1 for result in results if result.same_complex) / len(results)
