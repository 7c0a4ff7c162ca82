"""The SimRank measure on uncertain graphs (Section V of the paper).

Definition 1 expresses the ``n``-th SimRank approximation between vertices
``u`` and ``v`` through the *meeting probabilities*

    m(k)(u, v) = Σ_w Pr(u →k w) · Pr(v →k w)

— the probability that two independent random walks started at ``u`` and
``v`` stand on the same vertex after exactly ``k`` steps — combined as

    s(n)(u, v) = c^n · m(n)(u, v) + (1 − c) · Σ_{k=0}^{n−1} c^k · m(k)(u, v).

Theorem 2 bounds the truncation error by ``c^(n+1)``, so the approximation
converges exponentially fast in ``n``; Theorem 3 shows the measure degenerates
to ordinary SimRank when every arc has probability 1.

This module holds the shared arithmetic: turning transition-probability
distributions (exact or estimated) into meeting probabilities, combining
meeting probabilities into SimRank scores, and the analytical error bounds.
All four computation algorithms (Baseline, Sampling, SR-TS, SR-SP) delegate
to these helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Sequence

from repro.utils.errors import InvalidParameterError

Vertex = Hashable

#: Default decay factor used throughout the paper's experiments.
DEFAULT_DECAY = 0.6

#: Default number of iterations; the paper observes convergence within 5.
DEFAULT_ITERATIONS = 5

#: Default exact-prefix length ``l`` of the two-phase algorithms SR-TS and
#: SR-SP; the paper recommends l = 1 as the sweet spot.
DEFAULT_EXACT_PREFIX = 1


def validate_decay(decay: float) -> float:
    """Validate the decay factor ``c`` (must lie strictly between 0 and 1)."""
    if not 0.0 < decay < 1.0:
        raise InvalidParameterError(f"decay factor c must be in (0, 1), got {decay}")
    return float(decay)


def validate_iterations(iterations: int) -> int:
    """Validate the iteration count ``n`` (must be a positive integer)."""
    if iterations < 1:
        raise InvalidParameterError(f"number of iterations n must be >= 1, got {iterations}")
    return int(iterations)


def meeting_probability(
    distribution_u: Mapping[Vertex, float], distribution_v: Mapping[Vertex, float]
) -> float:
    """``Σ_w Pr(u →k w) · Pr(v →k w)`` for a single step count ``k``.

    The two mappings are sparse (vertices with probability zero omitted); the
    sum runs over the smaller support for efficiency.
    """
    if len(distribution_u) > len(distribution_v):
        distribution_u, distribution_v = distribution_v, distribution_u
    return sum(
        probability * distribution_v.get(vertex, 0.0)
        for vertex, probability in distribution_u.items()
    )


def meeting_probabilities_from_distributions(
    distributions_u: Sequence[Mapping[Vertex, float]],
    distributions_v: Sequence[Mapping[Vertex, float]],
) -> list[float]:
    """Meeting probabilities ``m(k)`` for ``k = 0 … n`` from per-step distributions."""
    if len(distributions_u) != len(distributions_v):
        raise InvalidParameterError(
            "the two walk-distribution sequences must have the same length"
        )
    return [
        meeting_probability(dist_u, dist_v)
        for dist_u, dist_v in zip(distributions_u, distributions_v)
    ]


def simrank_from_meeting_probabilities(
    meeting: Sequence[float], decay: float = DEFAULT_DECAY
) -> float:
    """Combine meeting probabilities into ``s(n)`` (Definition 1, Eq. 12).

    ``meeting`` must contain ``m(0) … m(n)``; the last entry receives weight
    ``c^n`` and every earlier entry ``k`` receives weight ``(1 − c) · c^k``.
    """
    decay = validate_decay(decay)
    if len(meeting) < 2:
        raise InvalidParameterError(
            "need meeting probabilities for at least k = 0 and k = 1 (n >= 1)"
        )
    n = len(meeting) - 1
    score = (decay**n) * meeting[n]
    for k in range(n):
        score += (1.0 - decay) * (decay**k) * meeting[k]
    return float(score)


def approximation_error_bound(decay: float, iterations: int) -> float:
    """Theorem 2: ``|s(n)(u, v) − s(u, v)| <= c^(n+1)``."""
    decay = validate_decay(decay)
    iterations = validate_iterations(iterations)
    return decay ** (iterations + 1)


def sampling_error_bound(
    epsilon: float, decay: float, iterations: int
) -> float:
    """Theorem 4: with probability ``1 − δ`` the Sampling error is ``<= ε (c − c^n)``."""
    decay = validate_decay(decay)
    iterations = validate_iterations(iterations)
    if epsilon <= 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    return epsilon * (decay - decay**iterations)


def two_phase_error_bound(
    epsilon: float, decay: float, iterations: int, exact_prefix: int
) -> float:
    """Corollary 1: the two-phase error is ``<= ε (c^(l+1) − c^n)`` w.h.p."""
    decay = validate_decay(decay)
    iterations = validate_iterations(iterations)
    if epsilon <= 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0 <= exact_prefix <= iterations:
        raise InvalidParameterError(
            f"exact prefix l must satisfy 0 <= l <= n, got l={exact_prefix}, n={iterations}"
        )
    return epsilon * (decay ** (exact_prefix + 1) - decay**iterations)


@dataclass(frozen=True)
class SimRankResult:
    """Outcome of one single-pair SimRank computation.

    Attributes
    ----------
    u, v:
        The queried vertex pair.
    score:
        The (approximate) SimRank similarity ``s(n)(u, v)``.
    meeting_probabilities:
        The per-step meeting probabilities ``m(0) … m(n)`` that produced the
        score (exact, estimated, or a mix for the two-phase algorithm).
    decay:
        The decay factor ``c``.
    iterations:
        The number of iterations ``n``.
    method:
        Which algorithm produced the result: ``"baseline"``, ``"sampling"``,
        ``"two_phase"`` or ``"speedup"``.
    details:
        Method-specific extras (sample count, exact prefix length, timings…).
    """

    u: Vertex
    v: Vertex
    score: float
    meeting_probabilities: tuple
    decay: float
    iterations: int
    method: str
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def truncation_error_bound(self) -> float:
        """Theorem 2 bound on the distance to the exact (n → ∞) SimRank."""
        return approximation_error_bound(self.decay, self.iterations)

    def __float__(self) -> float:
        return self.score
