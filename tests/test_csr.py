"""Tests for the array-backed CSR graph snapshots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError


class TestConstruction:
    def test_matches_dict_graph(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        assert csr.num_vertices == paper_graph.num_vertices
        assert csr.num_arcs == paper_graph.num_arcs
        for vertex in paper_graph.vertices():
            position = csr.index_of(vertex)
            destinations, probabilities = csr.out_slice(position)
            arcs = {csr.vertex_at(int(d)): p for d, p in zip(destinations, probabilities)}
            assert arcs == paper_graph.out_arcs(vertex)

    def test_vertex_order_matches_insertion_order(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        assert list(csr.vertices) == paper_graph.vertices()
        index = paper_graph.vertex_index()
        for vertex, position in index.items():
            assert csr.index_of(vertex) == position

    def test_empty_graph(self):
        csr = CSRGraph.from_uncertain(UncertainGraph())
        assert csr.num_vertices == 0
        assert csr.num_arcs == 0

    def test_isolated_vertices(self):
        graph = UncertainGraph(vertices=["a", "b"])
        graph.add_arc("b", "a", 0.5)
        csr = CSRGraph.from_uncertain(graph)
        assert csr.out_degrees().tolist() == [0, 1]

    def test_unknown_vertex_rejected(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        with pytest.raises(InvalidParameterError):
            csr.index_of("nope")


class TestCaching:
    def test_snapshot_is_cached(self, paper_graph):
        first = CSRGraph.from_uncertain(paper_graph)
        assert CSRGraph.from_uncertain(paper_graph) is first
        assert paper_graph.csr() is first

    def test_mutation_invalidates_cache(self, paper_graph):
        first = CSRGraph.from_uncertain(paper_graph)
        paper_graph.add_arc("v5", "v1", 0.25)
        second = CSRGraph.from_uncertain(paper_graph)
        assert second is not first
        assert second.num_arcs == first.num_arcs + 1

    def test_removal_invalidates_cache(self, paper_graph):
        first = CSRGraph.from_uncertain(paper_graph)
        paper_graph.remove_arc("v1", "v3")
        second = CSRGraph.from_uncertain(paper_graph)
        assert second is not first
        assert second.num_arcs == first.num_arcs - 1

    def test_version_counter_monotone(self):
        graph = UncertainGraph()
        seen = {graph.version}
        graph.add_vertex("a")
        seen.add(graph.version)
        graph.add_arc("a", "b", 0.5)
        seen.add(graph.version)
        graph.remove_arc("a", "b")
        seen.add(graph.version)
        assert len(seen) >= 4


class TestIncrementalRebuild:
    def _assert_snapshots_equal(self, left: CSRGraph, right: CSRGraph) -> None:
        assert left.vertices == right.vertices
        assert np.array_equal(left.indptr, right.indptr)
        assert np.array_equal(left.indices, right.indices)
        assert np.array_equal(left.probs, right.probs)

    def test_matches_full_rebuild_after_mixed_mutations(self, paper_graph):
        previous = CSRGraph.from_uncertain(paper_graph)
        paper_graph.add_arc("v1", "v6", 0.3)      # new vertex appended
        paper_graph.remove_arc("v3", "v4")
        paper_graph.add_arc("v2", "v3", 0.55)     # probability overwrite
        snapshot = CSRGraph.from_uncertain_incremental(
            paper_graph, previous, {"v1", "v3", "v2"}
        )
        self._assert_snapshots_equal(snapshot, CSRGraph._build(paper_graph))

    def test_installed_in_snapshot_cache(self, paper_graph):
        previous = CSRGraph.from_uncertain(paper_graph)
        paper_graph.remove_arc("v4", "v5")
        snapshot = CSRGraph.from_uncertain_incremental(paper_graph, previous, {"v4"})
        assert CSRGraph.from_uncertain(paper_graph) is snapshot

    def test_empty_dirty_set_is_a_copy(self, paper_graph):
        previous = CSRGraph.from_uncertain(paper_graph)
        snapshot = CSRGraph.from_uncertain_incremental(paper_graph, previous, set())
        self._assert_snapshots_equal(snapshot, previous)

    def test_new_source_vertex_row(self, paper_graph):
        previous = CSRGraph.from_uncertain(paper_graph)
        paper_graph.add_arc("v7", "v1", 0.9)      # brand-new source
        snapshot = CSRGraph.from_uncertain_incremental(
            paper_graph, previous, {"v7"}
        )
        self._assert_snapshots_equal(snapshot, CSRGraph._build(paper_graph))

    def test_verify_catches_incomplete_dirty_set(self, paper_graph):
        previous = CSRGraph.from_uncertain(paper_graph)
        paper_graph.add_arc("v1", "v5", 0.2)
        with pytest.raises(RuntimeError):
            CSRGraph.from_uncertain_incremental(
                paper_graph, previous, set(), verify=True
            )

    def test_removed_vertex_prefix_rejected(self, paper_graph):
        previous = CSRGraph.from_uncertain(paper_graph)
        rebuilt = UncertainGraph()
        rebuilt.add_arc("v1", "v3", 0.8)
        with pytest.raises(InvalidParameterError):
            CSRGraph.from_uncertain_incremental(rebuilt, previous, set())

    def test_walks_identical_on_incremental_and_full_snapshot(self, paper_graph):
        """The sampling layer cannot tell the two rebuild paths apart."""
        from repro.core.batch_walks import sample_walk_matrix_keyed

        previous = CSRGraph.from_uncertain(paper_graph)
        paper_graph.add_arc("v5", "v1", 0.45)
        incremental = CSRGraph.from_uncertain_incremental(
            paper_graph, previous, {"v5"}
        )
        full = CSRGraph._build(paper_graph)
        sources = np.zeros(64, dtype=np.int64)
        keys = np.arange(64, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        assert np.array_equal(
            sample_walk_matrix_keyed(incremental, sources, 4, keys),
            sample_walk_matrix_keyed(full, sources, 4, keys),
        )
