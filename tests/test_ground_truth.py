"""Ground truth for the keyed walk sweep: per-step rows against enumeration.

The uncertain transition matrix ``W(k)[u, v]`` is the probability that a walk
from ``u``, standing in one possible world for its whole length, is on ``v``
after ``k`` steps (Section VI-B).  Exhaustive possible-world enumeration
(:func:`~repro.core.transition.exact_transition_matrices_by_enumeration`)
gives it exactly on a small graph, so the empirical rows of
:func:`~repro.core.batch_walks.sample_walk_matrix_keyed` must lie within a
fixed ``|z|`` bound of it at every cell, independently of how the sweep picks
its arcs.  A sweep that forgot its world between visits samples
``W(1)^k`` instead, which the zoo's 2-cycle and self-loops tell apart.

The tier-1 slice runs one seed; the ``slow`` sweep (deselected by default,
``pytest -m slow``) runs more seeds at more walks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch_walks import NO_VERTEX, sample_walk_matrix_keyed
from repro.core.transition import exact_transition_matrices_by_enumeration
from repro.graph.csr import CSRGraph
from repro.graph.uncertain_graph import UncertainGraph

#: Walk steps checked: ``W(1) … W(STEPS)``.
STEPS = 4
#: Largest ``|z|`` any cell may read.  About 0.2% of 324 null cells would
#: exceed it by chance; the seeds are fixed, so the test is deterministic.
Z_BOUND = 4.5


def zoo() -> UncertainGraph:
    """A 13-arc graph small enough to enumerate, with every row shape a
    sweep must get right.

    * ``h`` has 9 out-arcs whose probabilities run from 0.05 to 1.0, so a
      walk there resolves at every try count and often needs the full-row
      enumeration.
    * ``h -> b -> h`` is a 2-cycle, and ``h`` and ``c5`` carry self-loops:
      on revisits the walk must reuse its world, where ``W(k) != W(1)^k``
      (Du et al. 2015).
    * ``s`` and ``c1 … c3``, ``c6`` are sinks; ``h -> c6`` has ``p = 1``, which
      keeps the snapshot's existence thresholds unshifted.
    """
    graph = UncertainGraph()
    for target, probability in [
        ("b", 0.6), ("h", 0.5), ("s", 0.3), ("c1", 0.05), ("c2", 0.1),
        ("c3", 0.2), ("c4", 0.8), ("c5", 0.95), ("c6", 1.0),
    ]:
        graph.add_arc("h", target, probability)
    graph.add_arc("b", "h", 0.7)
    graph.add_arc("b", "s", 0.4)
    graph.add_arc("c4", "h", 0.9)
    graph.add_arc("c5", "c5", 0.45)
    return graph


@pytest.fixture(scope="module")
def truth():
    graph = zoo()
    csr = CSRGraph.from_uncertain(graph)
    return csr, exact_transition_matrices_by_enumeration(graph, STEPS, csr.vertices)


def empirical_rows(csr: CSRGraph, source: int, num_walks: int, seed: int) -> np.ndarray:
    """``(STEPS + 1, n)`` fractions of ``num_walks`` keyed walks on each vertex."""
    keys = np.random.default_rng([seed, source]).integers(
        0, 2**64, size=num_walks, dtype=np.uint64
    )
    walks = sample_walk_matrix_keyed(
        csr, np.full(num_walks, source, dtype=np.int64), STEPS, keys
    )
    rows = np.zeros((STEPS + 1, csr.num_vertices))
    for step in range(STEPS + 1):
        column = walks[:, step]
        rows[step] = np.bincount(column[column != NO_VERTEX], minlength=csr.num_vertices)
    return rows / num_walks


def max_abs_z(csr: CSRGraph, exact, num_walks: int, seed: int) -> float:
    """The largest ``|z|`` over every (source, step, vertex) cell.

    Cells the enumeration puts at exactly 0 or 1 must read exactly that.
    """
    worst = 0.0
    for source in range(csr.num_vertices):
        rows = empirical_rows(csr, source, num_walks, seed)
        for step in range(1, STEPS + 1):
            expected = exact[step][source]
            certain = (expected < 1e-12) | (expected > 1 - 1e-12)
            assert np.array_equal(rows[step][certain], np.round(expected[certain])), (
                csr.vertex_at(source), step,
            )
            p = expected[~certain]
            z = (rows[step][~certain] - p) / np.sqrt(p * (1 - p) / num_walks)
            worst = max(worst, float(np.abs(z).max(initial=0.0)))
    return worst


def test_zoo_separates_remembered_worlds_from_fresh_ones(truth):
    # The check has teeth only where W(k) != W(1)^k by many standard errors.
    _, exact = truth
    gap = max(
        np.abs(exact[k] - np.linalg.matrix_power(exact[1], k)).max()
        for k in range(2, STEPS + 1)
    )
    assert gap > 0.02


def test_keyed_sweep_rows_match_enumeration(truth):
    csr, exact = truth
    assert max_abs_z(csr, exact, num_walks=400_000, seed=1) <= Z_BOUND


@pytest.mark.slow
@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_keyed_sweep_rows_match_enumeration_sweep(truth, seed):
    csr, exact = truth
    assert max_abs_z(csr, exact, num_walks=1_000_000, seed=seed) <= Z_BOUND
