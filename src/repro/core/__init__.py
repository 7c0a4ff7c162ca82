"""Core contribution of the paper: SimRank on uncertain graphs.

The package is organised around the paper's sections:

* :mod:`repro.core.walks` — walk probabilities on uncertain graphs (WalkPr,
  Section IV-A).
* :mod:`repro.core.transition` — k-step transition probabilities (TransPr,
  Section IV-B) plus the possible-world oracle.
* :mod:`repro.core.simrank` — the SimRank measure on uncertain graphs
  (Definition 1, Theorems 1–3, Section V).
* :mod:`repro.core.baseline` — the exact Baseline algorithm (Section VI-A).
* :mod:`repro.core.sampling` — the Sampling algorithm (Section VI-B): sample
  sizes and the scalar walk sampler kept as a test oracle.
* :mod:`repro.core.batch_walks` — the keyed batch walk sampler of the
  sampling-based algorithms.
* :mod:`repro.core.speedup` — the speed-up SR-SP (Section VI-D): filter
  choice tables and the per-process lanes propagated over them.
* :mod:`repro.core.executors` — snapshot-scoped, batched method executors:
  every algorithm (including the two-phase SR-TS of Section VI-C) behind one
  ``run_batch(pairs, overrides)`` contract — the only estimator path.
* :mod:`repro.core.engine` — a single entry point routing to the executors.
* :mod:`repro.core.topk` — top-k similarity queries built on the estimators.
"""

from repro.core.baseline import baseline_simrank, baseline_simrank_all_pairs
from repro.core.batch_walks import (
    bundle_key,
    meeting_probabilities_against_many,
    meeting_probabilities_from_matrices,
    sample_walk_matrix_keyed,
)
from repro.core.engine import SimRankEngine, compute_simrank
from repro.core.executors import (
    METHODS,
    EngineCaches,
    EngineSnapshot,
    MethodExecutor,
    WalkSource,
    executor_for,
    make_executor,
)
from repro.core.sampling import (
    required_sample_size,
    sample_walk,
    sample_walks,
)
from repro.core.simrank import (
    SimRankResult,
    approximation_error_bound,
    simrank_from_meeting_probabilities,
    two_phase_error_bound,
)
from repro.core.speedup import FilterVectors
from repro.core.topk import top_k_similar_pairs, top_k_similar_to
from repro.core.transition import (
    exact_transition_matrices_by_enumeration,
    expected_one_step_matrix,
    single_source_transition_probabilities,
    transition_probability_matrices,
)
from repro.core.walks import WalkStatistics, walk_probability

__all__ = [
    "baseline_simrank",
    "baseline_simrank_all_pairs",
    "bundle_key",
    "meeting_probabilities_against_many",
    "meeting_probabilities_from_matrices",
    "sample_walk_matrix_keyed",
    "SimRankEngine",
    "compute_simrank",
    "METHODS",
    "EngineCaches",
    "EngineSnapshot",
    "MethodExecutor",
    "WalkSource",
    "executor_for",
    "make_executor",
    "required_sample_size",
    "sample_walk",
    "sample_walks",
    "SimRankResult",
    "approximation_error_bound",
    "simrank_from_meeting_probabilities",
    "two_phase_error_bound",
    "FilterVectors",
    "top_k_similar_pairs",
    "top_k_similar_to",
    "exact_transition_matrices_by_enumeration",
    "expected_one_step_matrix",
    "single_source_transition_probabilities",
    "transition_probability_matrices",
    "WalkStatistics",
    "walk_probability",
]
