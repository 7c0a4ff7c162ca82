"""Cross-validation of the keyed batch walk sampler against the scalar oracle.

The keyed sampler behind every executor must reproduce the semantics of the
scalar :func:`~repro.core.sampling.sample_walk`: walks follow existing arcs,
truncate at dead ends of the sampled possible world, and the engine's
meeting-probability estimates agree with the scalar estimator (and with the
exact Baseline values) within Monte-Carlo tolerance.  The SR-SP
frontier-sparse packed propagation must match the per-vertex counting tables
exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import baseline_meeting_probabilities, baseline_simrank
from repro.core.batch_walks import (
    NO_VERTEX,
    meeting_probabilities_from_matrices,
    sample_walk_matrix_keyed,
)
from repro.core.engine import SimRankEngine, compute_simrank
from repro.core.sampling import (
    estimate_meeting_probabilities,
    sample_walk,
    sample_walks,
)
from repro.core.simrank import simrank_from_meeting_probabilities
from repro.core.speedup import (
    FilterVectors,
    meeting_probabilities_from_tables,
    packed_meeting_probabilities,
    propagate_counting_tables,
    propagate_packed_tables,
)
from repro.graph.csr import CSRGraph, CSRGraphView
from repro.graph.generators import rmat_uncertain
from repro.graph.uncertain_graph import UncertainGraph
from repro.core.bundle_store import WalkBundleStore
from repro.utils.bitvector import BitVector
from repro.utils.errors import InvalidParameterError

#: Monte-Carlo tolerance for two independent estimates at the sample sizes below.
MC_TOLERANCE = 0.05


def keyed_walks(
    graph: UncertainGraph, source, length: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` keyed walks from ``source`` under random world keys."""
    csr = CSRGraph.from_uncertain(graph)
    sources = np.full(count, csr.index_of(source), dtype=np.int64)
    keys = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    return sample_walk_matrix_keyed(csr, sources, length, keys)


def scalar_meetings(graph, u, v, iterations, num_walks, seed):
    """The scalar oracle: independent walk bundles, then Eq. 13."""
    generator = np.random.default_rng(seed)
    walks_u = sample_walks(graph, u, iterations, num_walks, generator)
    walks_v = sample_walks(graph, v, iterations, num_walks, generator)
    return estimate_meeting_probabilities(walks_u, walks_v, iterations, u, v)


class TestWalkMatrix:
    def test_shape_and_source_column(self, paper_graph, rng):
        walks = keyed_walks(paper_graph, "v1", 5, 40, rng)
        csr = CSRGraph.from_uncertain(paper_graph)
        assert walks.shape == (40, 6)
        assert (walks[:, 0] == csr.index_of("v1")).all()

    def test_walks_follow_arcs(self, paper_graph, rng):
        csr = CSRGraph.from_uncertain(paper_graph)
        walks = keyed_walks(paper_graph, "v2", 4, 200, rng)
        for row in walks:
            for k in range(4):
                if row[k + 1] == NO_VERTEX:
                    break
                u = csr.vertex_at(int(row[k]))
                v = csr.vertex_at(int(row[k + 1]))
                assert paper_graph.has_arc(u, v)

    def test_truncation_is_monotone(self, paper_graph, rng):
        walks = keyed_walks(paper_graph, "v3", 6, 300, rng)
        for row in walks:
            dead = np.flatnonzero(row == NO_VERTEX)
            if dead.size:
                assert (row[dead[0] :] == NO_VERTEX).all()

    def test_certain_graph_never_truncates(self, certain_graph, rng):
        walks = keyed_walks(certain_graph, "a", 6, 100, rng)
        assert (walks != NO_VERTEX).all()

    def test_zero_length(self, paper_graph, rng):
        walks = keyed_walks(paper_graph, "v1", 0, 7, rng)
        assert walks.shape == (7, 1)

    def test_invalid_inputs(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        keys = np.arange(5, dtype=np.uint64)
        with pytest.raises(InvalidParameterError):
            sample_walk_matrix_keyed(csr, np.full(5, -1), 3, keys)
        with pytest.raises(InvalidParameterError):
            sample_walk_matrix_keyed(csr, np.zeros(5, dtype=np.int64), -1, keys)
        with pytest.raises(InvalidParameterError):
            sample_walk_matrix_keyed(csr, np.zeros(4, dtype=np.int64), 3, keys)


class TestDeadEndTruncation:
    def test_exact_agreement_on_deterministic_dead_end(self, rng):
        """On a certain chain into a sink, both samplers truncate identically."""
        graph = UncertainGraph()
        graph.add_arc("a", "b", 1.0)
        graph.add_arc("b", "c", 1.0)
        csr = CSRGraph.from_uncertain(graph)
        walks = keyed_walks(graph, "a", 5, 50, rng)
        scalar = [sample_walk(graph, "a", 5, rng) for _ in range(50)]
        expected = [csr.index_of(v) for v in ("a", "b", "c")] + [NO_VERTEX] * 3
        assert (walks == np.array(expected)).all()
        assert all(walk == ["a", "b", "c"] for walk in scalar)

    def test_truncation_length_distribution_matches_scalar(self, rng):
        """Stochastic dead ends: per-step survival matches the scalar sampler."""
        graph = UncertainGraph()
        graph.add_arc("a", "b", 0.5)
        graph.add_arc("b", "c", 0.5)
        graph.add_arc("c", "a", 0.5)
        count, steps = 4000, 3
        walks = keyed_walks(graph, "a", steps, count, rng)
        keyed_survival = (walks != NO_VERTEX).mean(axis=0)
        scalar_lengths = np.array(
            [len(sample_walk(graph, "a", steps, rng)) for _ in range(count)]
        )
        for k in range(steps + 1):
            scalar_survival = (scalar_lengths > k).mean()
            assert keyed_survival[k] == pytest.approx(scalar_survival, abs=MC_TOLERANCE)


class TestCrossValidation:
    def test_meeting_probabilities_match_scalar(self, paper_graph):
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=4000, seed=7)
        keyed = engine.similarity("v1", "v2", method="sampling").meeting_probabilities
        scalar = scalar_meetings(paper_graph, "v1", "v2", 4, 4000, seed=7)
        assert keyed[0] == scalar[0] == 0.0
        for keyed_value, scalar_value in zip(keyed[1:], scalar[1:]):
            assert keyed_value == pytest.approx(scalar_value, abs=MC_TOLERANCE)

    def test_meeting_probabilities_match_exact(self, paper_graph):
        exact = baseline_meeting_probabilities(paper_graph, "v2", "v4", 4)
        estimated = compute_simrank(
            paper_graph, "v2", "v4", method="sampling", iterations=4,
            num_walks=6000, seed=3,
        ).meeting_probabilities
        for exact_value, estimate in zip(exact, estimated):
            assert estimate == pytest.approx(exact_value, abs=0.03)

    def test_simrank_score_matches_scalar_backend(self, paper_graph):
        """The engine and the scalar oracle both land on the exact score."""
        exact = baseline_simrank(paper_graph, "v1", "v2", iterations=4).score
        keyed = compute_simrank(
            paper_graph, "v1", "v2", method="sampling", iterations=4,
            num_walks=6000, seed=11,
        ).score
        scalar = simrank_from_meeting_probabilities(
            scalar_meetings(paper_graph, "v1", "v2", 4, 6000, seed=11), 0.6
        )
        assert keyed == pytest.approx(exact, abs=0.02)
        assert scalar == pytest.approx(exact, abs=0.02)

    def test_same_endpoint_meets_at_step_zero(self, paper_graph):
        """A self-pair compares the bundle against its independent twin, so
        m(k) matches the exact value instead of a bundle meeting itself."""
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=6000, seed=5)
        meeting = engine.similarity("v1", "v1", method="sampling").meeting_probabilities
        assert meeting[0] == 1.0
        exact = baseline_meeting_probabilities(paper_graph, "v1", "v1", 4)
        scalar = scalar_meetings(paper_graph, "v1", "v1", 4, 6000, seed=5)
        for exact_value, scalar_value, estimate in zip(exact[1:], scalar[1:], meeting[1:]):
            assert estimate == pytest.approx(exact_value, abs=0.03)
            assert estimate == pytest.approx(scalar_value, abs=MC_TOLERANCE)

    def test_vectorized_backend_is_reproducible(self, paper_graph):
        """Equal seeds give bit-identical engine answers."""
        first = compute_simrank(paper_graph, "v1", "v2", method="sampling", num_walks=300, seed=3)
        second = compute_simrank(paper_graph, "v1", "v2", method="sampling", num_walks=300, seed=3)
        assert first.score == second.score
        assert first.meeting_probabilities == second.meeting_probabilities

    def test_speedup_backends_agree_exactly(self, paper_graph):
        """Same filter bits: sparse packed propagation == counting tables."""
        filters_u = FilterVectors(paper_graph, 700, rng=3)
        filters_v = FilterVectors(paper_graph, 700, rng=4)
        packed_u = propagate_packed_tables("v1", 4, filters_u)
        packed_v = propagate_packed_tables("v2", 4, filters_v)
        tables_u = propagate_counting_tables(paper_graph, "v1", 4, filters_u)
        tables_v = propagate_counting_tables(paper_graph, "v2", 4, filters_v)
        assert unpack_tables(packed_u, filters_u) == tables_u
        assert unpack_tables(packed_v, filters_v) == tables_v
        oracle = meeting_probabilities_from_tables(tables_u, tables_v, 700, "v1", "v2")
        assert packed_meeting_probabilities(packed_u, packed_v, 700, "v1", "v2") == oracle
        engine = SimRankEngine(paper_graph, iterations=4, num_walks=700, seed=1)
        result = engine.similarity(
            "v1", "v2", method="speedup", exact_prefix=0,
            filters=filters_u, filters_v=filters_v,
        )
        assert list(result.meeting_probabilities) == oracle


def unpack_tables(tables, filters: FilterVectors):
    """Sparse packed tables as the oracle's per-step ``{vertex: BitVector}``.

    Also checks the sparse form's invariants: sorted unique active rows,
    one row of words per active vertex, and no all-zero row.
    """
    csr, width = filters.csr, filters.num_processes
    unpacked = []
    for active, rows in tables.steps:
        assert active.dtype == np.int64 and rows.dtype == np.uint64
        assert rows.shape == (active.size, filters.packed.shape[1])
        assert (np.diff(active) > 0).all()
        assert rows.any(axis=1).all()
        unpacked.append(
            {
                csr.vertex_at(int(index)): BitVector(
                    width, int.from_bytes(row.tobytes(), "little")
                )
                for index, row in zip(active, rows)
            }
        )
    return unpacked


def edge_case_csr() -> CSRGraph:
    """A small graph with every propagation edge case the dense path hid.

    ``s`` has a self-loop, a certain arc and a p = 0 arc (never sampled);
    ``sink`` has no out-arcs; ``iso`` has no arcs at all; the walk from
    ``d`` dies after two steps (``d -> e -> sink``).  The p = 0 arc cannot
    enter an :class:`UncertainGraph`, so the snapshot is built directly.
    """
    vertices = ("s", "a", "b", "sink", "iso", "d", "e")
    out = {
        "s": [("s", 0.3), ("a", 1.0), ("b", 0.5), ("d", 0.0)],
        "a": [("sink", 1.0), ("b", 0.4)],
        "b": [("a", 0.7), ("s", 0.2), ("b", 1.0)],
        "sink": [],
        "iso": [],
        "d": [("e", 1.0)],
        "e": [("sink", 1.0)],
    }
    index = {vertex: position for position, vertex in enumerate(vertices)}
    indptr = np.cumsum([0] + [len(out[vertex]) for vertex in vertices])
    arcs = [arc for vertex in vertices for arc in out[vertex]]
    return CSRGraph(
        indptr,
        np.array([index[target] for target, _ in arcs], dtype=np.int64),
        np.array([probability for _, probability in arcs]),
        vertices,
    )


class TestSparsePropagationOracle:
    """Frontier-sparse propagation and meeting == the BitVector oracle, bit
    for bit, on the graphs where a sparse frontier differs most from a
    dense table."""

    @staticmethod
    def zoo():
        csr = edge_case_csr()
        graph = rmat_uncertain(60, 150, rng=8)  # sparse R-MAT: many sinks
        return [(CSRGraphView(csr), csr), (graph, CSRGraph.from_uncertain(graph))]

    @pytest.mark.parametrize("num_walks", [1, 64, 700])
    def test_tables_match_oracle(self, num_walks):
        for graph, csr in self.zoo():
            filters = FilterVectors(graph, num_walks, rng=num_walks, csr=csr)
            for source in csr.vertices:
                packed = propagate_packed_tables(source, 5, filters)
                oracle = propagate_counting_tables(graph, source, 5, filters)
                assert unpack_tables(packed, filters) == oracle, source

    def test_edge_cases_shape_the_frontier(self):
        csr = edge_case_csr()
        filters = FilterVectors(CSRGraphView(csr), 700, rng=2, csr=csr)
        iso = propagate_packed_tables("iso", 3, filters)
        assert [active.size for active, _ in iso.steps] == [1, 0, 0, 0]
        dying = propagate_packed_tables("d", 4, filters)
        assert [active.size for active, _ in dying.steps] == [1, 1, 1, 0, 0]
        # The p = 0 arc s -> d is never taken, so d is unreachable from s.
        from_s = propagate_packed_tables("s", 4, filters)
        d = csr.index_of("d")
        assert all(d not in active for active, _ in from_s.steps)
        assert propagate_packed_tables("s", 0, filters).nbytes > 0

    @pytest.mark.parametrize("shared_filters", [False, True])
    def test_meetings_match_oracle(self, shared_filters):
        for graph, csr in self.zoo():
            filters_u = FilterVectors(graph, 700, rng=5, csr=csr)
            filters_v = filters_u if shared_filters else FilterVectors(graph, 700, rng=6, csr=csr)
            vertices = list(csr.vertices)
            for u, v in zip(vertices, vertices[3:] + vertices[:3]):
                oracle = meeting_probabilities_from_tables(
                    propagate_counting_tables(graph, u, 5, filters_u),
                    propagate_counting_tables(graph, v, 5, filters_v),
                    700, u, v,
                )
                packed = packed_meeting_probabilities(
                    propagate_packed_tables(u, 5, filters_u),
                    propagate_packed_tables(v, 5, filters_v),
                    700, u, v,
                )
                assert packed == oracle, (u, v)

    @pytest.mark.parametrize("shared_filters", [False, True])
    def test_engine_matches_oracle(self, shared_filters):
        graph = rmat_uncertain(60, 150, rng=8)
        engine = SimRankEngine(graph, iterations=5, num_walks=700, seed=4)
        filters_u = engine.filters
        filters_v = filters_u if shared_filters else engine.filters_v
        vertices = list(graph.vertices())
        pairs = list(zip(vertices[:20], vertices[5:25]))
        results = engine.similarity_many(
            pairs, method="speedup", exact_prefix=0, shared_filters=shared_filters
        )
        for (u, v), result in zip(pairs, results):
            oracle = meeting_probabilities_from_tables(
                propagate_counting_tables(graph, u, 5, filters_u),
                propagate_counting_tables(graph, v, 5, filters_v),
                700, u, v,
            )
            assert list(result.meeting_probabilities) == oracle, (u, v)

    def test_table_mismatch_rejected(self, paper_graph):
        filters = FilterVectors(paper_graph, 64, rng=1)
        with pytest.raises(InvalidParameterError):
            packed_meeting_probabilities(
                propagate_packed_tables("v1", 2, filters),
                propagate_packed_tables("v2", 3, filters),
                64, "v1", "v2",
            )
        with pytest.raises(InvalidParameterError):
            propagate_packed_tables("nope", 2, filters)
        with pytest.raises(InvalidParameterError):
            propagate_packed_tables("v1", -1, filters)


class TestMeetingFromMatrices:
    def test_truncated_walks_never_meet(self):
        walks_u = np.array([[0, NO_VERTEX], [0, 2]])
        walks_v = np.array([[1, NO_VERTEX], [1, 2]])
        meeting = meeting_probabilities_from_matrices(walks_u, walks_v, 1, False)
        assert meeting == [0.0, 0.5]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            meeting_probabilities_from_matrices(
                np.zeros((2, 3), dtype=np.int64), np.zeros((3, 3), dtype=np.int64), 2, False
            )

    def test_insufficient_steps_rejected(self):
        walks = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            meeting_probabilities_from_matrices(walks, walks, 5, True)


class TestWalkBundleCache:
    """The engine's walk-bundle cache: a keyed walk source over a store."""

    @staticmethod
    def bundle(engine: SimRankEngine, vertex, twin: bool = False) -> np.ndarray:
        snapshot = engine.snapshot()
        csr = snapshot.csr
        need = (csr.index_of(vertex), twin, engine.num_walks)
        return snapshot.walks.resolve(csr, engine.iterations, [need])[need]

    def test_bundles_sampled_once_per_endpoint(self, paper_graph):
        engine = SimRankEngine(
            paper_graph, iterations=4, num_walks=100, seed=9,
            bundle_store=WalkBundleStore(budget_bytes=None),
        )
        first = self.bundle(engine, "v1")
        assert self.bundle(engine, "v1") is first
        engine.similarity("v1", "v2", method="sampling")
        assert self.bundle(engine, "v1") is first

    def test_meeting_probabilities_consistent_with_direct(self, paper_graph):
        exact = baseline_meeting_probabilities(paper_graph, "v1", "v2", 4)
        engine = SimRankEngine(
            paper_graph, iterations=4, num_walks=6000, seed=9,
            bundle_store=WalkBundleStore(budget_bytes=None),
        )
        cached = engine.similarity("v1", "v2", method="sampling")
        direct = compute_simrank(
            paper_graph, "v1", "v2", method="sampling", iterations=4,
            num_walks=6000, seed=9,
        )
        assert cached.meeting_probabilities == direct.meeting_probabilities
        for exact_value, estimate in zip(exact, cached.meeting_probabilities):
            assert estimate == pytest.approx(exact_value, abs=0.03)

    def test_self_pair_uses_independent_bundles(self, paper_graph):
        """A (u, u) query must not compare a bundle against itself: the walks
        would be perfectly correlated and m(k) grossly inflated."""
        exact = baseline_meeting_probabilities(paper_graph, "v1", "v1", 4)
        engine = SimRankEngine(
            paper_graph, iterations=4, num_walks=6000, seed=9,
            bundle_store=WalkBundleStore(budget_bytes=None),
        )
        estimated = engine.similarity("v1", "v1", method="sampling").meeting_probabilities
        assert estimated[0] == 1.0
        for exact_value, estimate in zip(exact[1:], estimated[1:]):
            assert estimate == pytest.approx(exact_value, abs=0.03)
        assert self.bundle(engine, "v1") is not self.bundle(engine, "v1", twin=True)
