"""The keyed walk sweep kernel: bit-identity and batched mixing.

The production sweep (:func:`~repro.core.batch_walks.sample_walk_matrix_keyed`,
which runs the fused :class:`~repro.core.kernels.NumpyKernel`) must sample
walk matrices bit-identical to the original unchunked step loop of the
:class:`~tests.kernel_oracle.ReferenceKernel` oracle — the property the whole
deterministic serving stack (sharding, epochs, bundle stores) rests on.  The
suites here sweep chunk sizes and graph shapes chosen to drive the fused
kernel through both its dense fast path and its ragged path, and
cross-validate the keyed scheme against the scalar
:func:`~repro.core.sampling.sample_walks` oracle statistically.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.batch_walks as batch_walks
from repro.core.batch_walks import (
    endpoint_world_keys,
    sample_walk_matrix_keyed,
    shard_world_keys,
)
from repro.core.engine import SimRankEngine
from repro.core.sampling import estimate_meeting_probabilities, sample_walks
from repro.core.simrank import simrank_from_meeting_probabilities
from repro.core.executors import WalkSource
from repro.core.kernels import (
    DENSE_MAX_COLS,
    KERNEL,
    NUMPY_CHUNK_MAX_ROWS,
    NUMPY_CHUNK_MIN_ROWS,
    NumpyKernel,
    default_kernel_name,
    resolve_chunk_rows,
    resolve_kernel,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_uncertain
from repro.graph.uncertain_graph import UncertainGraph, example_graph
from repro.service.sharding import ShardedWalkSampler
from repro.service.tenancy import TenantConfig
from repro.utils.errors import InvalidParameterError

from tests.conftest import small_random_uncertain_graph
from tests.kernel_oracle import ReferenceKernel

#: Monte-Carlo tolerance for two independent estimates at the sizes below.
MC_TOLERANCE = 0.05


def reference_walks(
    csr: CSRGraph, sources: np.ndarray, length: int, keys: np.ndarray
) -> np.ndarray:
    """The unchunked original step loop — the ground truth of bit-identity."""
    return ReferenceKernel().sample(
        csr, sources, length, keys, chunk_rows=max(1, sources.size)
    )


def reference_sweep(csr, sources, length, keys, chunk_rows=None) -> np.ndarray:
    """The oracle at its default (or the given) chunking."""
    return ReferenceKernel().sample(csr, sources, length, keys, chunk_rows)


#: The two evaluations of the keyed sweep: the chunked oracle and the
#: production path.  Both must equal the unchunked oracle.
SWEEPS = {"reference": reference_sweep, "numpy": sample_walk_matrix_keyed}


def keyed_request(csr: CSRGraph, count: int, seed: int):
    """Deterministic (sources, world_keys) spanning every vertex."""
    generator = np.random.default_rng(seed)
    sources = generator.integers(0, csr.num_vertices, size=count, dtype=np.int64)
    keys = generator.integers(0, 2**64, size=count, dtype=np.uint64)
    return sources, keys


def graph_zoo():
    """Graph shapes that drive the numpy kernel through all of its paths."""
    sparse = CSRGraph.from_uncertain(
        rmat_uncertain(120, 300, rng=np.random.default_rng(5))
    )
    dense = CSRGraph.from_uncertain(
        small_random_uncertain_graph(25, 0.55, seed=9)
    )
    # Regular out-degree 3 ring: max degree under DENSE_MAX_COLS with zero
    # padding waste, so every step takes the dense fast path.
    ring = UncertainGraph()
    for u in range(40):
        for offset in (1, 2, 3):
            ring.add_arc(u, (u + offset) % 40, 0.3 + 0.5 * ((u + offset) % 7) / 7)
    # Hub-and-spoke: one row of degree 60 amid degree-1 rows — the padded
    # layout would waste > DENSE_MAX_WASTE, forcing the ragged path.
    star = UncertainGraph()
    for leaf in range(1, 61):
        star.add_arc("hub", leaf, 0.8)
        star.add_arc(leaf, "hub", 0.4)
    # Extreme probabilities: p=1.0 arcs overflow the pre-shifted integer
    # threshold (2**53 << 11 wraps), exercising the unshifted fallback
    # alongside near-zero arcs.
    extreme = UncertainGraph()
    for u in range(12):
        extreme.add_arc(u, (u + 1) % 12, 1.0)
        extreme.add_arc(u, (u + 2) % 12, 1e-12)
        extreme.add_arc(u, (u + 3) % 12, 0.5)
    return {
        "paper": CSRGraph.from_uncertain(example_graph()),
        "sparse": sparse,
        "dense": dense,
        "ring": CSRGraph.from_uncertain(ring),
        "star": CSRGraph.from_uncertain(star),
        "extreme": CSRGraph.from_uncertain(extreme),
    }


GRAPHS = graph_zoo()


class TestKernelResolution:
    def test_one_kernel_and_no_selection(self):
        assert default_kernel_name() == "numpy"
        assert resolve_kernel() is KERNEL
        assert isinstance(KERNEL, NumpyKernel)
        with pytest.raises(InvalidParameterError, match="one walk kernel"):
            resolve_kernel("reference")
        with pytest.raises(TypeError):
            SimRankEngine(example_graph(), kernel="numpy")
        with pytest.raises(TypeError):
            ShardedWalkSampler(seed=1, kernel="numpy")
        with pytest.raises(TypeError):
            WalkSource(ShardedWalkSampler(seed=1), kernel="numpy")
        assert "kernel" not in TenantConfig.__dataclass_fields__

    def test_resolve_chunk_rows_bounds_and_override(self):
        csr = GRAPHS["sparse"]
        assert resolve_chunk_rows(csr, 5, 17) == 17
        rows = resolve_chunk_rows(csr, 5, None)
        assert NUMPY_CHUNK_MIN_ROWS <= rows <= NUMPY_CHUNK_MAX_ROWS
        with pytest.raises(InvalidParameterError, match="chunk_rows"):
            resolve_chunk_rows(csr, 5, 0)


class TestBitIdentity:
    """Every chunk size and graph shape samples the oracle's walks."""

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("kernel", list(SWEEPS))
    def test_kernels_match_unchunked_core(self, name, kernel):
        csr = GRAPHS[name]
        sources, keys = keyed_request(csr, 700, seed=hash(name) % 2**31)
        for length in (0, 1, 5, 11):
            expected = reference_walks(csr, sources, length, keys)
            got = SWEEPS[kernel](csr, sources, length, keys)
            assert np.array_equal(got, expected), (name, kernel, length)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64, 997, NUMPY_CHUNK_MAX_ROWS])
    def test_chunking_never_changes_walks(self, chunk_rows):
        csr = GRAPHS["sparse"]
        sources, keys = keyed_request(csr, 500, seed=42)
        expected = reference_walks(csr, sources, 7, keys)
        for kernel, sweep in SWEEPS.items():
            got = sweep(csr, sources, 7, keys, chunk_rows=chunk_rows)
            assert np.array_equal(got, expected), (kernel, chunk_rows)

    def test_dense_and_ragged_paths_agree_across_boundary(self):
        # Degrees straddling DENSE_MAX_COLS: the same walks must come out
        # whether a step runs padded-dense or ragged.
        for extra in (DENSE_MAX_COLS - 1, DENSE_MAX_COLS, DENSE_MAX_COLS + 1):
            graph = UncertainGraph()
            for u in range(30):
                for offset in range(1, extra + 1):
                    graph.add_arc(u, (u + offset) % 30, 0.6)
            csr = CSRGraph.from_uncertain(graph)
            sources, keys = keyed_request(csr, 400, seed=extra)
            expected = reference_walks(csr, sources, 6, keys)
            got = sample_walk_matrix_keyed(csr, sources, 6, keys)
            assert np.array_equal(got, expected), extra

    def test_zero_probability_arcs_never_taken(self):
        # UncertainGraph forbids p=0, but the kernels accept any CSR: build
        # one directly so the p=0 threshold edge (ceil(0 * 2^53) = 0) is hit.
        csr = CSRGraph(
            indptr=np.arange(11, dtype=np.int64),
            indices=np.arange(1, 11, dtype=np.int64) % 10,
            probs=np.zeros(10),
            vertices=tuple(range(10)),
        )
        sources, keys = keyed_request(csr, 200, seed=0)
        for sweep in SWEEPS.values():
            walks = sweep(csr, sources, 4, keys)
            assert np.array_equal(walks[:, 0], sources)
            assert (walks[:, 1:] == batch_walks.NO_VERTEX).all()

    def test_certain_arcs_always_exist(self, certain_graph):
        csr = CSRGraph.from_uncertain(certain_graph)
        sources, keys = keyed_request(csr, 300, seed=1)
        walks = sample_walk_matrix_keyed(csr, sources, 8, keys)
        assert np.array_equal(
            walks, reference_walks(csr, sources, 8, keys)
        )
        # Every vertex of the certain graph has out-arcs: no truncation ever.
        assert (walks != batch_walks.NO_VERTEX).all()

    def test_empty_request(self):
        csr = GRAPHS["paper"]
        empty_sources = np.empty(0, dtype=np.int64)
        empty_keys = np.empty(0, dtype=np.uint64)
        for sweep in SWEEPS.values():
            walks = sweep(csr, empty_sources, 5, empty_keys)
            assert walks.shape == (0, 6)

    def test_scalar_python_backend_statistical_agreement(self, paper_graph):
        """The keyed kernels agree with the scalar oracle estimator."""
        keyed = SimRankEngine(paper_graph, seed=3, num_walks=4000)
        generator = np.random.default_rng(3)
        for u, v in [("v1", "v2"), ("v2", "v3")]:
            a = keyed.similarity(u, v, method="sampling").score
            oracle = estimate_meeting_probabilities(
                sample_walks(paper_graph, u, 5, 4000, generator),
                sample_walks(paper_graph, v, 5, 4000, generator),
                5, u, v,
            )
            b = simrank_from_meeting_probabilities(oracle, keyed.decay)
            assert a == pytest.approx(b, abs=MC_TOLERANCE)


def _unfrozen_copy(csr: CSRGraph) -> CSRGraph:
    """The same arrays in a snapshot no sweep has built tables for yet."""
    return CSRGraph(csr.indptr, csr.indices, csr.probs, csr.vertices)


class TestLocalArcKeys:
    """Existence draws are keyed by (source vertex, row offset)."""

    @pytest.mark.parametrize("name", ["sparse", "dense", "star"])
    def test_per_step_hash_matches_the_hoisted_table(self, name):
        # A sweep too small to amortize the per-snapshot table hashes the
        # gathered local keys per step; both must sample the oracle's walks.
        csr = _unfrozen_copy(GRAPHS[name])
        sources, keys = keyed_request(csr, 4, seed=3)
        small = sample_walk_matrix_keyed(csr, sources, 2, keys)
        assert csr.sweep_tables is None  # the per-step path ran
        assert np.array_equal(small, reference_walks(csr, sources, 2, keys))
        sources, keys = keyed_request(csr, 600, seed=4)
        large = sample_walk_matrix_keyed(csr, sources, 6, keys)
        assert csr.sweep_tables is not None  # built once, kept on the snapshot
        assert np.array_equal(large, reference_walks(csr, sources, 6, keys))

    def test_walk_depends_only_on_the_rows_it_leaves(self):
        graph = rmat_uncertain(120, 300, rng=np.random.default_rng(5))
        before = CSRGraph.from_uncertain(graph)
        sources, keys = keyed_request(before, 3000, seed=8)
        old = sample_walk_matrix_keyed(before, sources, 6, keys)
        # Change the out-row of a busy early vertex: its degree shift moves
        # the global CSR position of every later arc.
        dirty = before.vertex_at(int(np.argmax(np.bincount(old[:, :-1][old[:, :-1] >= 0]))))
        graph.remove_arc(dirty, next(iter(graph.out_arcs(dirty))))
        added = [v for v in before.vertices if not graph.has_arc(dirty, v)][:2]
        for target in added:
            graph.add_arc(dirty, target, 0.9)
        assert len(graph.out_arcs(dirty)) == before.out_degrees()[before.index_of(dirty)] + 1
        after = CSRGraph.from_uncertain_incremental(graph, before, {dirty}, verify=True)
        new = sample_walk_matrix_keyed(after, sources, 6, keys)
        left_dirty = (old[:, :-1] == before.index_of(dirty)).any(axis=1)
        assert 0 < left_dirty.sum() < left_dirty.size
        assert np.array_equal(new[~left_dirty], old[~left_dirty])


class TestResumedWalks:
    """``first_steps`` resumes a walk mid-way under its own pick stream."""

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_resumed_rows_are_the_suffix_of_the_full_walk(self, name):
        csr = GRAPHS[name]
        sources, keys = keyed_request(csr, 500, seed=21)
        full = sample_walk_matrix_keyed(csr, sources, 7, keys)
        rng = np.random.default_rng(22)
        first = rng.integers(0, 8, size=sources.size)
        # Resume each row from a step its walk reached (step 0 otherwise).
        first[full[np.arange(sources.size), first] < 0] = 0
        resumed_from = full[np.arange(sources.size), first]
        expected = np.where(np.arange(8) >= first[:, None], full, batch_walks.NO_VERTEX)
        for rows in (None, 7):
            got = sample_walk_matrix_keyed(
                csr, resumed_from, 7, keys, chunk_rows=rows, first_steps=first
            )
            assert np.array_equal(got, expected), (name, rows)
        oracle = ReferenceKernel().sample(csr, resumed_from, 7, keys, 64, first)
        assert np.array_equal(oracle, expected), name

    def test_invalid_first_steps_rejected(self):
        csr = GRAPHS["paper"]
        sources, keys = keyed_request(csr, 4, seed=0)
        with pytest.raises(InvalidParameterError, match="first_steps"):
            sample_walk_matrix_keyed(csr, sources, 3, keys, first_steps=np.full(4, 4))
        with pytest.raises(InvalidParameterError, match="first_steps"):
            sample_walk_matrix_keyed(csr, sources, 3, keys, first_steps=np.zeros(3))


def _sample_bundle(sampler, csr, need, length):
    """One need's bundle, sampled in a sweep of its own."""
    return sampler.sample_bundles_mixed(csr, [need], length)[need]


class TestMixedWalkBatching:
    def test_sample_bundles_mixed_matches_per_count(self):
        """Rows are a pure function of their world keys: a bundle sampled
        beside others of different walk counts equals one sampled alone."""
        csr = GRAPHS["sparse"]
        needs = [(0, False, 40), (3, False, 8), (3, True, 40), (7, False, 24)]
        sampler = ShardedWalkSampler(seed=5, shard_size=16)
        mixed = sampler.sample_bundles_mixed(csr, needs, 6)
        for need in needs:
            assert np.array_equal(mixed[need], _sample_bundle(sampler, csr, need, 6))

    def test_serial_walk_source_resolves_mixed_in_one_sweep(self, monkeypatch):
        csr = GRAPHS["sparse"]
        sampler = ShardedWalkSampler(seed=9)
        source = WalkSource(sampler)
        needs = [(0, False, 32), (2, False, 8), (2, True, 32), (5, False, 8)]
        expected = {need: _sample_bundle(sampler, csr, need, 6) for need in needs}
        sweeps = []
        original = batch_walks.sample_walk_matrix_keyed

        def counting(*args, **kwargs):
            sweeps.append(args[1].size)
            return original(*args, **kwargs)

        monkeypatch.setattr(batch_walks, "sample_walk_matrix_keyed", counting)
        resolved = source.resolve(csr, 6, needs)
        assert sweeps == [sum(need[2] for need in needs)]
        for need in needs:
            assert np.array_equal(resolved[need], expected[need])


class TestMemoizationAndDeprecation:
    def test_shard_world_keys_memoized_and_read_only(self):
        first = shard_world_keys(7, 3, False, 2, 16)
        second = shard_world_keys(7, 3, False, 2, 16)
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0

    @pytest.mark.parametrize("shard_length", [1, 16, 256, 300])
    def test_shard_world_keys_follow_the_seed_sequence_rule(self, shard_length):
        # The key-derivation rule of the sampling scheme: the full-range
        # uint64 draws of a Generator over SeedSequence(seed, (v, twin, s)).
        sequence = np.random.SeedSequence(entropy=11, spawn_key=(5, 1, 3))
        expected = np.random.default_rng(sequence).integers(
            0, 2**64, size=shard_length, dtype=np.uint64
        )
        got = shard_world_keys(11, 5, True, 3, shard_length)
        assert got.dtype == np.uint64 and np.array_equal(got, expected)

    def test_endpoint_world_keys_unaffected_by_memoization(self):
        keys = endpoint_world_keys(7, 3, False, 40, 16)
        assert keys.shape == (40,)
        assert np.array_equal(keys[:16], shard_world_keys(7, 3, False, 0, 16))
        assert np.array_equal(keys[32:], shard_world_keys(7, 3, False, 2, 8))

    def test_unknown_module_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            batch_walks.NOT_A_REAL_NAME
