"""The four entity-resolution comparators of the case study.

The paper derives two new algorithms from the EIF framework and compares them
against EIF itself and DISTINCT (Table V, Fig. 15):

* **SimER** — the entity graph is treated as an *uncertain* graph and records
  are aggregated by the paper's uncertain-graph SimRank similarity.
* **SimDER** — the entity graph is treated as deterministic (uncertainty
  stripped) and records are aggregated by deterministic SimRank.
* **EIF** (Li et al., WAIM 2010) — edges below a weight threshold are
  discarded and records are aggregated by the Jaccard similarity of their
  neighbourhoods in the remaining graph.
* **DISTINCT** (Yin, Han & Yu, ICDE 2007) — reproduced in simplified form as
  a composite of direct feature overlap (set resemblance of co-authors) and
  neighbourhood connection strength, which is the essence of its two-component
  similarity.

All four share the same aggregation framework (threshold + connected
components), which is what makes the runtime comparison of Fig. 15 meaningful.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from repro.core.engine import SimRankEngine
from repro.baselines.simrank_deterministic import deterministic_simrank_pair
from repro.baselines.structural_context import deterministic_jaccard
from repro.er.clustering import connected_component_clusters
from repro.er.graph_builder import (
    build_entity_graph,
    record_context_similarity,
    strip_low_probability_edges,
)
from repro.er.records import Record
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import RandomState

Clusters = List[List[str]]

#: Aggregation threshold for SimER / SimDER.  The paper uses 0.1 on its DBLP
#: entity graph; the synthetic record graphs built here are an order of
#: magnitude smaller, which compresses absolute SimRank values, so the default
#: is calibrated to the synthetic record generator of :mod:`repro.er.records`
#: instead.
DEFAULT_SIMRANK_THRESHOLD = 0.02

#: Edge-weight threshold used by the EIF pre-processing step.
DEFAULT_EIF_EDGE_THRESHOLD = 0.3

#: Minimum direct-edge probability for a record pair to be considered for
#: aggregation by the SimRank-based algorithms.
DEFAULT_CANDIDATE_EDGE_PROBABILITY = 0.2


def _candidate_pairs(graph, min_direct_probability: float = 0.0) -> List[Tuple[str, str]]:
    """Record pairs worth scoring: those connected in the entity graph.

    ``min_direct_probability`` additionally requires a reasonably strong direct
    edge between the two records.  Records of the same author always share a
    good part of their context, so this filter cheaply removes the noise edges
    whose transitive closure would otherwise glue different authors together.
    """
    pairs = set()
    for u, v, probability in graph.arcs():
        if probability >= min_direct_probability:
            pairs.add((u, v) if u <= v else (v, u))
    return sorted(pairs)


def _record_ids(records: Sequence[Record]) -> List[str]:
    ids = [record.record_id for record in records]
    if len(set(ids)) != len(ids):
        raise InvalidParameterError("records must have unique record ids")
    return ids


def sim_er_algorithm(
    records: Sequence[Record],
    similarity_threshold: float = DEFAULT_SIMRANK_THRESHOLD,
    method: str = "speedup",
    num_walks: int = 300,
    iterations: int = 5,
    decay: float = 0.6,
    seed: RandomState = 11,
    min_edge_probability: float = 0.05,
    min_candidate_probability: float = DEFAULT_CANDIDATE_EDGE_PROBABILITY,
) -> Clusters:
    """SimER: aggregate records by uncertain-graph SimRank similarity."""
    ids = _record_ids(records)
    graph = build_entity_graph(records, min_probability=min_edge_probability)
    engine = SimRankEngine(
        graph, decay=decay, iterations=iterations, num_walks=num_walks, seed=seed
    )
    linked = []
    for record_a, record_b in _candidate_pairs(graph, min_candidate_probability):
        score = engine.similarity(record_a, record_b, method=method).score
        if score >= similarity_threshold:
            linked.append((record_a, record_b))
    return connected_component_clusters(ids, linked)


def sim_der_algorithm(
    records: Sequence[Record],
    similarity_threshold: float = DEFAULT_SIMRANK_THRESHOLD,
    iterations: int = 5,
    decay: float = 0.6,
    min_edge_probability: float = 0.05,
    min_candidate_probability: float = DEFAULT_CANDIDATE_EDGE_PROBABILITY,
) -> Clusters:
    """SimDER: aggregate records by deterministic SimRank (uncertainty removed)."""
    ids = _record_ids(records)
    graph = build_entity_graph(records, min_probability=min_edge_probability)
    deterministic = graph.to_deterministic()
    linked = []
    for record_a, record_b in _candidate_pairs(graph, min_candidate_probability):
        score = deterministic_simrank_pair(
            deterministic, record_a, record_b, decay=decay, iterations=iterations
        )
        if score >= similarity_threshold:
            linked.append((record_a, record_b))
    return connected_component_clusters(ids, linked)


def eif_algorithm(
    records: Sequence[Record],
    edge_threshold: float = DEFAULT_EIF_EDGE_THRESHOLD,
    jaccard_threshold: float = 0.2,
    min_edge_probability: float = 0.05,
) -> Clusters:
    """EIF: discard low-weight edges, aggregate by neighbourhood Jaccard similarity.

    A pair of records is also linked when they remain directly connected after
    thresholding and share at least one neighbour — the "effective identity
    features" shortcut of the original framework.
    """
    ids = _record_ids(records)
    graph = build_entity_graph(records, min_probability=min_edge_probability)
    pruned = strip_low_probability_edges(graph, edge_threshold)
    linked = []
    for record_a, record_b in _candidate_pairs(pruned):
        score = deterministic_jaccard(pruned, record_a, record_b)
        if score >= jaccard_threshold:
            linked.append((record_a, record_b))
    return connected_component_clusters(ids, linked)


def distinct_algorithm(
    records: Sequence[Record],
    similarity_threshold: float = 0.3,
    feature_weight: float = 0.6,
    min_edge_probability: float = 0.05,
) -> Clusters:
    """DISTINCT (simplified): composite of feature overlap and connection strength.

    The similarity of two records is a weighted sum of (a) the set resemblance
    of their co-author lists and (b) the normalised strength of their
    connection through common neighbours in the entity graph.  Pairs above the
    threshold are merged by connected components, exactly like the other
    comparators.
    """
    if not 0.0 <= feature_weight <= 1.0:
        raise InvalidParameterError(f"feature_weight must be in [0, 1], got {feature_weight}")
    ids = _record_ids(records)
    by_id: Dict[str, Record] = {record.record_id: record for record in records}
    graph = build_entity_graph(records, min_probability=min_edge_probability)

    def _composite(record_a: str, record_b: str) -> float:
        a, b = by_id[record_a], by_id[record_b]
        coauthors_a, coauthors_b = set(a.coauthors), set(b.coauthors)
        union = coauthors_a | coauthors_b
        resemblance = len(coauthors_a & coauthors_b) / len(union) if union else 0.0

        arcs_a = graph.out_arcs(record_a)
        arcs_b = graph.out_arcs(record_b)
        common = set(arcs_a) & set(arcs_b)
        if common:
            connection = sum(min(arcs_a[w], arcs_b[w]) for w in common) / len(common)
        else:
            connection = 0.0
        direct = arcs_a.get(record_b, 0.0)
        connection = max(connection, direct)
        return feature_weight * resemblance + (1.0 - feature_weight) * connection

    linked = []
    for record_a, record_b in combinations(ids, 2):
        if _composite(record_a, record_b) >= similarity_threshold:
            linked.append((record_a, record_b))
    return connected_component_clusters(ids, linked)
