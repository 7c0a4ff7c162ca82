"""Answer audit: a seeded sample of a run's answers against standalone oracles.

Pair answers must be bit-identical to a standalone ``SimRankEngine`` with
the service's seed and shard size, on the graph at the answer's
``graph_version`` (the edge file replayed through the run's mutation logs).
Top-k answers must be identical to ``top_k_similar_to`` /
``top_k_similar_pairs`` with ``use_index=False``.  Runs outside every timed
window, in the benchmark's own process.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from bench_inputs import SERVICE_SEED

from repro.core.engine import SimRankEngine
from repro.core.topk import top_k_similar_pairs, top_k_similar_to
from repro.graph.io import read_edge_list
from repro.service import MutationLog
from repro.service.sharding import DEFAULT_SHARD_SIZE


def _engine(graph) -> SimRankEngine:
    return SimRankEngine(graph, seed=SERVICE_SEED, shard_size=DEFAULT_SHARD_SIZE)


def audit_pairs(spec: dict, inputs: dict, result: dict, rng: np.random.Generator) -> Dict:
    """Check up to ``audit_pairs_per_method`` answers of each method."""
    per_method = spec["scale"]["audit_pairs_per_method"]
    by_method: Dict[str, List[list]] = {}
    for answer in result["answers"]:
        by_method.setdefault(answer[3], []).append(answer)
    sample: List[list] = []
    for method in sorted(by_method):
        answers = by_method[method]
        picks = rng.choice(len(answers), size=min(per_method, len(answers)), replace=False)
        sample.extend(answers[int(i)] for i in picks)

    # Versions the run published, in order: the edge file, then each log.
    graph = read_edge_list(spec["graph"])
    versions = {graph.version: 0}
    for index, version in sorted(result["reports"]):
        versions[version] = index + 1
    mismatches, unknown = 0, 0
    applied = 0
    for answer in sorted(sample, key=lambda a: versions.get(a[5], -1)):
        target = versions.get(answer[5])
        if target is None or target < applied:
            unknown += 1
            continue
        while applied < target:
            MutationLog.from_records(inputs["logs"][applied]).apply_to(graph)
            applied += 1
        if graph.version != answer[5]:
            unknown += 1
            continue
        _, u, v, method, score, _ = answer
        expected = _engine(graph).similarity(u, v, method=method).score
        if expected != score:
            mismatches += 1
    return {"checked": len(sample), "mismatches": mismatches + unknown}


def audit_topk(spec: dict, inputs: dict, result: dict, rng: np.random.Generator) -> Dict:
    """Check one answer of each of ``audit_topk_kinds`` seeded top-k kinds.

    A kind is a (request op, method) pair; a scan oracle costs seconds, so
    a run checks a seeded subset of the kinds and the seeds cover them all.
    """
    graph_version = spec["graph_version"]
    engine = _engine(read_edge_list(spec["graph"]))
    kinds: Dict[tuple, List[int]] = {}
    for position, request in enumerate(result["requests"]):
        kinds.setdefault((request["op"], request["method"]), []).append(position)
    ordered = sorted(kinds)
    chosen = rng.choice(
        len(ordered), size=min(spec["scale"]["audit_topk_kinds"], len(ordered)), replace=False
    )
    checked, mismatches = 0, 0
    for kind in (ordered[int(i)] for i in sorted(chosen)):
        positions = kinds[kind]
        position = positions[int(rng.integers(len(positions)))]
        request = result["requests"][position]
        response = result["responses"][position]
        checked += 1
        if response.get("graph_version") != graph_version or "error" in response:
            mismatches += 1
            continue
        if request["op"] == "top_k":
            expected = top_k_similar_to(
                engine,
                request["query"],
                request["k"],
                candidates=request.get("candidates"),
                method=request["method"],
                use_index=False,
            )
        else:
            expected = top_k_similar_pairs(
                engine,
                request["k"],
                candidate_pairs=[tuple(pair) for pair in request["pairs"]],
                method=request["method"],
                use_index=False,
            )
        if [tuple(item) for item in expected] != [tuple(item) for item in response["results"]]:
            mismatches += 1
    return {"checked": checked, "mismatches": mismatches}


def audit(spec: dict, inputs: dict, result: dict) -> Dict:
    rng = np.random.default_rng([spec["seed"], 0xA0D17])
    if spec["workload"] == "topk-batch":
        return audit_topk(spec, inputs, result, rng)
    return audit_pairs(spec, inputs, result, rng)
