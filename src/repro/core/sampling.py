"""The Sampling algorithm (Section VI-B): Monte-Carlo meeting probabilities.

For each query pair ``(u, v)`` the algorithm samples ``N`` length-``n`` walks
from ``u`` and ``N`` from ``v``.  A walk is sampled *with its walk
probability* by lazily instantiating possible-world edges: the first time the
walk visits a vertex, each of its out-arcs is materialised independently with
its existence probability and the instantiation is remembered for the rest of
the walk; every visit then chooses uniformly among the instantiated out-arcs.
The meeting probability ``m(k)`` is estimated by the fraction of sample
indices ``i`` whose two walks stand on the same vertex at step ``k``
(Eq. 13), and Lemma 4 / Theorem 4 give Chernoff-style error guarantees.

The estimator itself runs in
:class:`~repro.core.executors.SamplingExecutor`, which samples every walk
of a batch in one keyed sweep over the :class:`~repro.graph.csr.CSRGraph`
snapshot (:mod:`repro.core.batch_walks`).  The functions below are the
scalar transcription of the paper's definitions — one walk at a time over
the dict-of-dict graph — kept as the test oracle the executor is checked
against; no engine option routes to them.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Sequence

from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import RandomState, ensure_rng

Vertex = Hashable

#: Default number of sampled walks per endpoint (the paper's ``N``).
DEFAULT_NUM_WALKS = 1000


def required_sample_size(epsilon: float, delta: float) -> int:
    """Lemma 4: ``N >= (3 / ε²) · ln(2 / δ)`` guarantees ``|m − m̂| <= ε`` w.p. ``1 − δ``."""
    if epsilon <= 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return int(math.ceil(3.0 / (epsilon**2) * math.log(2.0 / delta)))


def sample_walk(
    graph: UncertainGraph,
    source: Vertex,
    length: int,
    rng: RandomState = None,
) -> List[Vertex]:
    """Sample one walk of (at most) ``length`` steps starting at ``source``.

    Returns the visited vertex sequence, starting with ``source``.  The walk
    is truncated early if it reaches a vertex none of whose out-arcs were
    instantiated (a dead end in the sampled possible world).
    """
    if not graph.has_vertex(source):
        raise InvalidParameterError(f"source vertex {source!r} is not in the graph")
    if length < 0:
        raise InvalidParameterError(f"length must be >= 0, got {length}")
    generator = ensure_rng(rng)
    walk: List[Vertex] = [source]
    instantiated: dict[Vertex, List[Vertex]] = {}
    current = source
    for _ in range(length):
        if current not in instantiated:
            out_arcs = graph.out_arcs(current)
            present = [
                neighbor
                for neighbor, probability in out_arcs.items()
                if generator.random() < probability
            ]
            instantiated[current] = present
        present = instantiated[current]
        if not present:
            break
        current = present[int(generator.integers(len(present)))]
        walk.append(current)
    return walk


def sample_walks(
    graph: UncertainGraph,
    source: Vertex,
    length: int,
    count: int,
    rng: RandomState = None,
) -> List[List[Vertex]]:
    """Sample ``count`` independent walks from ``source``."""
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count}")
    generator = ensure_rng(rng)
    return [sample_walk(graph, source, length, generator) for _ in range(count)]


def estimate_meeting_probabilities(
    walks_u: Sequence[Sequence[Vertex]],
    walks_v: Sequence[Sequence[Vertex]],
    iterations: int,
    u: Vertex,
    v: Vertex,
) -> List[float]:
    """Estimate ``m(0) … m(n)`` from paired walk samples (Eq. 13).

    ``m(0)`` needs no sampling: it is 1 when ``u == v`` and 0 otherwise.  For
    ``k >= 1`` the estimate is the fraction of sample indices whose two walks
    are both long enough and stand on the same vertex at step ``k``.
    """
    if len(walks_u) != len(walks_v):
        raise InvalidParameterError("walk bundles must contain the same number of walks")
    if not walks_u:
        raise InvalidParameterError("at least one pair of sampled walks is required")
    count = len(walks_u)
    meeting = [1.0 if u == v else 0.0]
    for k in range(1, iterations + 1):
        hits = 0
        for walk_u, walk_v in zip(walks_u, walks_v):
            if len(walk_u) > k and len(walk_v) > k and walk_u[k] == walk_v[k]:
                hits += 1
        meeting.append(hits / count)
    return meeting
