"""Seeded inputs of the benchmark: the graph file, request streams, mutation logs.

Everything here is a pure function of the workload seed and the scale, so
the same seed always yields the same graph and the same requests.  The
program under test only ever sees what this module writes: an edge-list
file and the generated requests.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.generators import rmat_uncertain
from repro.graph.io import read_edge_list, write_edge_list

#: Seed of the service's keyed sampling scheme (fixed across workload seeds).
SERVICE_SEED = 7

#: Seed of the R-MAT graph.  Fixed, so that the spread between runs of
#: different workload seeds measures the program rather than the graph;
#: the workload seed draws the requests and the mutation logs.
GRAPH_SEED = 2016

#: Method mix of the serving workloads, by count.
PAIR_SERVE_MIX = (("sampling", 0.7), ("two_phase", 0.2), ("speedup", 0.1))
INGEST_SERVE_MIX = (("sampling", 0.8), ("two_phase", 0.2))

#: Zipf exponent of the pair-serve endpoint popularity.
ZIPF_EXPONENT = 1.1

#: Share of each mutation log per op kind (half adds, a quarter each of
#: probability updates and removals).
MUTATION_MIX = (("add_edge", 0.5), ("update_probability", 0.25), ("remove_edge", 0.25))


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run; ``FULL`` is the benchmark, ``SMOKE`` its test."""

    vertices: int = 2000
    edges: int = 6000
    outstanding: int = 8
    pair_warmup: int = 2000
    ingest_warmup: int = 400
    #: Upper bound on the serving rate, used to size the request pool.
    max_qps: int = 2500
    mutation_interval_s: float = 0.25
    mutation_ops: int = 20
    tail_mutations: int = 100
    topk_k: int = 10
    topk_sampling: int = 50
    topk_two_phase: int = 10
    topk_speedup: int = 3
    speedup_candidates: int = 200
    topk_pairs: int = 10
    pairs_per_set: int = 2000
    batch_mutations: int = 50
    setup_repeats: int = 5
    topk_setup_repeats: int = 3
    audit_pairs_per_method: int = 8
    audit_topk_kinds: int = 2


FULL = Scale()

SMOKE = Scale(
    vertices=80,
    edges=240,
    pair_warmup=100,
    ingest_warmup=50,
    max_qps=4000,
    mutation_ops=8,
    tail_mutations=4,
    topk_k=5,
    topk_sampling=3,
    topk_two_phase=1,
    topk_speedup=1,
    speedup_candidates=20,
    topk_pairs=1,
    pairs_per_set=100,
    batch_mutations=2,
    setup_repeats=2,
    topk_setup_repeats=1,
    audit_pairs_per_method=3,
    audit_topk_kinds=4,
)


def _counts(total: int, mix: Sequence[Tuple[str, float]]) -> List[str]:
    """Exactly ``total`` labels split by ``mix`` (rounding goes to the first)."""
    counts = [int(round(share * total)) for _, share in mix]
    counts[0] += total - sum(counts)
    labels: List[str] = []
    for (label, _), count in zip(mix, counts):
        labels.extend([label] * count)
    return labels


def _methods(rng: np.random.Generator, total: int, mix) -> List[str]:
    labels = _counts(total, mix)
    rng.shuffle(labels)
    return labels


def _distinct(rng: np.random.Generator, draw, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` endpoint pairs with ``u != v``, redrawing collisions."""
    u = draw(count)
    v = draw(count)
    clash = u == v
    while clash.any():
        v[clash] = draw(int(clash.sum()))
        clash = u == v
    return u, v


def pair_serve_requests(
    rng: np.random.Generator, vertices: Sequence[str], count: int
) -> List[List[str]]:
    """Zipf(1.1) endpoints over a seeded vertex permutation, 70/20/10 mix."""
    order = rng.permutation(len(vertices))
    weights = 1.0 / np.arange(1, len(vertices) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()

    def draw(size: int) -> np.ndarray:
        return order[rng.choice(len(vertices), size=size, p=weights)]

    u, v = _distinct(rng, draw, count)
    methods = _methods(rng, count, PAIR_SERVE_MIX)
    return [[vertices[a], vertices[b], m] for a, b, m in zip(u, v, methods)]


def ingest_serve_requests(
    rng: np.random.Generator, vertices: Sequence[str], count: int
) -> List[List[str]]:
    """Uniform endpoints, 80/20 sampling / two_phase."""

    def draw(size: int) -> np.ndarray:
        return rng.integers(0, len(vertices), size=size)

    u, v = _distinct(rng, draw, count)
    methods = _methods(rng, count, INGEST_SERVE_MIX)
    return [[vertices[a], vertices[b], m] for a, b, m in zip(u, v, methods)]


def mutation_logs(
    rng: np.random.Generator,
    vertices: Sequence[str],
    arcs: Sequence[Tuple[str, str]],
    logs: int,
    ops: int,
) -> List[List[dict]]:
    """``logs`` mutation logs of ``ops`` ops each, valid when applied in order.

    A mirror of the arc set tracks every op, so an ``add_edge`` never names
    an existing arc and a removal or update never names a missing one.
    """
    present = list(arcs)
    position = {arc: index for index, arc in enumerate(present)}

    def remove(arc: Tuple[str, str]) -> None:
        index = position.pop(arc)
        last = present.pop()
        if index < len(present):
            present[index] = last
            position[last] = index

    def existing() -> Tuple[str, str]:
        return present[int(rng.integers(len(present)))]

    out: List[List[dict]] = []
    for _ in range(logs):
        records: List[dict] = []
        for op in _methods(rng, ops, MUTATION_MIX):
            if op == "add_edge":
                while True:
                    a, b = rng.integers(0, len(vertices), size=2)
                    arc = (vertices[a], vertices[b])
                    if a != b and arc not in position:
                        break
                position[arc] = len(present)
                present.append(arc)
                records.append(
                    {"op": op, "u": arc[0], "v": arc[1],
                     "probability": float(rng.uniform(0.05, 1.0))}
                )
            elif op == "update_probability":
                arc = existing()
                records.append(
                    {"op": op, "u": arc[0], "v": arc[1],
                     "probability": float(rng.uniform(0.05, 1.0))}
                )
            else:
                arc = existing()
                remove(arc)
                records.append({"op": op, "u": arc[0], "v": arc[1]})
        out.append(records)
    return out


def _stratified(rng: np.random.Generator, order: Sequence[int], count: int) -> List[int]:
    """One random member of each of ``count`` equal blocks of ``order``."""
    bounds = np.linspace(0, len(order), count + 1).astype(int)
    return [int(order[rng.integers(lo, hi)]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def topk_stream(
    rng: np.random.Generator,
    vertices: Sequence[str],
    by_degree: Sequence[int],
    scale: Scale,
    logs: List[List[dict]],
) -> List[dict]:
    """One batch job: top-k queries, then stats, then a few mutations.

    Query vertices are drawn stratified over ``by_degree`` (vertex positions
    by expected out-degree): a top-k query's cost depends mostly on how
    many walks leave its vertex, so stratifying keeps every seed's job the
    same mix of cheap and expensive queries.
    """
    n = len(vertices)
    queries: List[dict] = []
    sampling = _stratified(rng, by_degree, scale.topk_sampling)
    taken = set(sampling)
    rest = [position for position in by_degree if position not in taken]
    picks = [("sampling", index) for index in sampling] + [
        ("two_phase", index) for index in _stratified(rng, rest, scale.topk_two_phase)
    ]
    for method, index in picks:
        queries.append(
            {"op": "top_k", "query": vertices[index], "k": scale.topk_k, "method": method}
        )
    for index in _stratified(rng, by_degree, scale.topk_speedup):
        others = np.delete(np.arange(n), index)
        candidates = rng.choice(others, size=scale.speedup_candidates, replace=False)
        queries.append(
            {
                "op": "top_k",
                "query": vertices[index],
                "k": scale.topk_k,
                "method": "speedup",
                "candidates": [vertices[i] for i in candidates],
            }
        )
    for _ in range(scale.topk_pairs):
        u, v = _distinct(rng, lambda size: rng.integers(0, n, size=size), scale.pairs_per_set)
        queries.append(
            {
                "op": "top_k_pairs",
                "k": scale.topk_k,
                "method": "sampling",
                "pairs": [[vertices[a], vertices[b]] for a, b in zip(u, v)],
            }
        )
    # A fixed order of query kinds, as a batch job would group them, so the
    # dispatcher's batches have the same shape for every seed.
    stream = [dict(query, id=position) for position, query in enumerate(queries)]
    # Stats before the mutations: a mutation retires the epoch whose index
    # store the stats report.
    stream.append({"op": "stats"})
    for log in logs:
        stream.append({"op": "mutate", "graph": "default", "ops": log})
    return stream


def generate(workload: str, seed: int, seconds: float, scale: Scale, workdir: Path) -> Dict:
    """Write the graph file and the request file of one run; return the spec."""
    graph = rmat_uncertain(
        scale.vertices, scale.edges, prob_low=0.05, rng=np.random.default_rng(GRAPH_SEED)
    )
    graph_path = workdir / "graph.txt"
    write_edge_list(graph, graph_path, header=f"rmat_uncertain seed={GRAPH_SEED}")
    rng = np.random.default_rng([seed, 0x5EED])
    # Labels and arc order exactly as the program will read them back.
    loaded = read_edge_list(graph_path)
    vertices = list(loaded.vertices())
    arcs = [(u, v) for u, v, _ in loaded.arcs()]
    expected_degree = [sum(loaded.out_arcs(vertex).values()) for vertex in vertices]
    by_degree = sorted(range(len(vertices)), key=lambda index: expected_degree[index])

    # The set-up request is the same for every seed: set-up time measures
    # the program's cold start, not the luck of the first request.
    inputs: Dict[str, object] = {"setup": [vertices[0], vertices[1], "sampling"]}
    if workload in ("pair-serve", "ingest-serve"):
        # One stream, so the warm-up pass has the timed phase's distribution
        # (for pair-serve: the same hot vertices).
        warmup = scale.pair_warmup if workload == "pair-serve" else scale.ingest_warmup
        draw = pair_serve_requests if workload == "pair-serve" else ingest_serve_requests
        requests = draw(rng, vertices, warmup + int(seconds * scale.max_qps))
        inputs["warmup"], inputs["requests"] = requests[:warmup], requests[warmup:]
    if workload == "pair-serve":
        inputs["logs"] = mutation_logs(rng, vertices, arcs, scale.tail_mutations, scale.mutation_ops)
    elif workload == "ingest-serve":
        due = int(seconds / scale.mutation_interval_s) + 2
        inputs["logs"] = mutation_logs(rng, vertices, arcs, due, scale.mutation_ops)
    elif workload == "topk-batch":
        logs = mutation_logs(rng, vertices, arcs, scale.batch_mutations, scale.mutation_ops)
        inputs["logs"] = logs
        inputs["stream"] = topk_stream(rng, vertices, by_degree, scale, logs)
        middle = vertices[by_degree[len(by_degree) // 2]]
        inputs["setup"] = {"op": "top_k", "query": middle, "k": scale.topk_k}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "graph": str(graph_path),
        "inputs": str(inputs_path),
        "scale": asdict(scale),
        "graph_vertices": loaded.num_vertices,
        "graph_arcs": loaded.num_arcs,
        "graph_version": loaded.version,
    }
