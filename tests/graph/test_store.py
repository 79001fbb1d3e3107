"""Round-trip and contract tests for the columnar temporal edge store.

Covers the dense ↔ store bridges on the awkward shapes —
empty graphs, attribute-less graphs (F=0), single-timestep graphs,
duplicate temporal edges — plus io persistence through the store and
the dense-materialization accounting.
"""

import numpy as np
import pytest

from repro.graph import (
    DynamicAttributedGraph,
    GraphSnapshot,
    TemporalEdgeStore,
    TemporalEdgeStoreBuilder,
    io as graph_io,
    track_dense_materializations,
)


def make_store(edges, n=5, t_len=3, attrs=None):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    return TemporalEdgeStore(n, t_len, arr[:, 0], arr[:, 1], arr[:, 2], attrs)


class TestTemporalEdgeStore:
    def test_canonical_order_and_dedup(self):
        store = make_store(
            [(2, 3, 1), (0, 1, 0), (2, 3, 1), (1, 0, 0), (0, 1, 1)]
        )
        assert store.num_edges == 4  # duplicate (2,3,1) collapsed
        np.testing.assert_array_equal(store.t, [0, 0, 1, 1])
        np.testing.assert_array_equal(store.src, [0, 1, 0, 2])
        np.testing.assert_array_equal(store.dst, [1, 0, 1, 3])
        np.testing.assert_array_equal(store.offsets, [0, 2, 4, 4])

    def test_self_loops_dropped(self):
        store = make_store([(1, 1, 0), (0, 1, 0)])
        assert store.num_edges == 1

    def test_range_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            make_store([(0, 9, 0)])
        with pytest.raises(ValueError, match="out of range"):
            make_store([(0, 1, 7)])

    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="lengths differ"):
            TemporalEdgeStore(3, 1, [0, 1], [1], [0])

    def test_csr_and_degrees(self):
        store = make_store([(0, 1, 0), (0, 2, 0), (2, 1, 0)])
        indptr, indices = store.csr_at(0)
        assert indptr.shape == (6,)
        np.testing.assert_array_equal(indices[indptr[0]:indptr[1]], [1, 2])
        np.testing.assert_array_equal(store.out_degrees_at(0), [2, 0, 1, 0, 0])
        np.testing.assert_array_equal(store.in_degrees_at(0), [0, 2, 1, 0, 0])

    def test_csc_reverse_index(self):
        store = make_store([(0, 1, 0), (2, 1, 0), (1, 0, 0)])
        indptr, rev_src = store.csc_at(0)
        # in-neighbours of node 1 are {0, 2}
        np.testing.assert_array_equal(
            np.sort(rev_src[indptr[1]:indptr[2]]), [0, 2]
        )

    def test_dense_adjacency_counts_and_is_readonly(self):
        store = make_store([(0, 1, 0)])
        with track_dense_materializations() as materialized:
            adj = store.dense_adjacency(0)
            assert materialized() == 1
        assert adj[0, 1] == 1.0
        assert not adj.flags.writeable

    def test_slice_timesteps(self):
        store = make_store([(0, 1, 0), (1, 2, 1), (2, 3, 2)])
        part = store.slice_timesteps(1, 3)
        assert part.num_timesteps == 2
        np.testing.assert_array_equal(part.t, [0, 1])
        np.testing.assert_array_equal(part.src, [1, 2])

    def test_attribute_block_shape_enforced(self):
        with pytest.raises(ValueError, match="attributes"):
            make_store([(0, 1, 0)], attrs=np.zeros((2, 5, 1)))

    def test_with_attributes_shares_columns(self):
        store = make_store([(0, 1, 0)])
        dressed = store.with_attributes(np.ones((3, 5, 2)))
        assert np.shares_memory(dressed.src, store.src)
        assert dressed.num_attributes == 2


class TestBuilder:
    def test_builder_round_trip(self):
        builder = TemporalEdgeStoreBuilder(4, 1)
        builder.add_step([0, 2, 0], [1, 3, 1], np.ones((4, 1)))
        builder.add_step([], [], np.zeros((4, 1)))
        store = builder.build()
        assert store.num_timesteps == 2
        assert store.num_edges == 2  # duplicate (0, 1) collapsed
        assert store.num_edges_at(1) == 0
        np.testing.assert_array_equal(store.attributes[0], np.ones((4, 1)))

    def test_builder_rejects_bad_shapes(self):
        builder = TemporalEdgeStoreBuilder(4, 0)
        with pytest.raises(ValueError, match="out of range"):
            builder.add_step([0], [9])
        with pytest.raises(ValueError, match="attributes"):
            builder.add_step([0], [1], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="no timesteps"):
            TemporalEdgeStoreBuilder(4).build()


class TestRoundTrips:
    def test_dense_store_dense(self, tiny_graph):
        store = tiny_graph.store
        rebuilt = DynamicAttributedGraph.from_store(store)
        assert rebuilt == tiny_graph
        np.testing.assert_array_equal(
            rebuilt.adjacency_tensor(), tiny_graph.adjacency_tensor()
        )
        np.testing.assert_array_equal(
            rebuilt.attribute_tensor(), tiny_graph.attribute_tensor()
        )

    def test_empty_graph(self):
        graph = DynamicAttributedGraph(
            [GraphSnapshot(np.zeros((4, 4))) for _ in range(3)]
        )
        store = graph.store
        assert store.num_edges == 0
        assert store.structural_nbytes() < 100
        rebuilt = DynamicAttributedGraph.from_store(store)
        assert rebuilt == graph

    def test_attribute_less_graph(self, structure_only_graph):
        store = structure_only_graph.store
        assert store.num_attributes == 0
        rebuilt = DynamicAttributedGraph.from_store(store)
        assert rebuilt == structure_only_graph

    def test_single_timestep_graph(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[2, 0] = 1.0
        graph = DynamicAttributedGraph([GraphSnapshot(adj, np.ones((3, 2)))])
        store = graph.store
        assert store.num_timesteps == 1
        assert DynamicAttributedGraph.from_store(store) == graph

    def test_io_round_trip_through_store(self, tmp_path, tiny_graph):
        path = tmp_path / "g.npz"
        graph_io.save(tiny_graph, path)
        assert graph_io.load(path) == tiny_graph

    def test_io_round_trip_structure_only(self, tmp_path, structure_only_graph):
        path = tmp_path / "g.npz"
        graph_io.save(structure_only_graph, path)
        assert graph_io.load(path) == structure_only_graph

    def test_io_reads_legacy_v1(self, tmp_path, tiny_graph):
        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path,
            version=np.array(1),
            adjacency=tiny_graph.adjacency_tensor().astype(np.int8),
            attributes=tiny_graph.attribute_tensor(),
        )
        assert graph_io.load(path) == tiny_graph


class TestStoreBackedViews:
    def test_snapshot_views_answer_without_densifying(self, tiny_graph):
        graph = DynamicAttributedGraph.from_store(tiny_graph.store)
        with track_dense_materializations() as materialized:
            for t, snap in enumerate(graph):
                assert snap.num_edges == tiny_graph[t].num_edges
                np.testing.assert_allclose(
                    snap.in_degrees(), tiny_graph[t].in_degrees()
                )
                np.testing.assert_allclose(
                    snap.out_degrees(), tiny_graph[t].out_degrees()
                )
                assert snap.edges() == tiny_graph[t].edges()
            assert materialized() == 0

    def test_lazy_adjacency_is_cached_and_readonly(self, tiny_graph):
        graph = DynamicAttributedGraph.from_store(tiny_graph.store)
        snap = graph[0]
        with track_dense_materializations() as materialized:
            first = snap.adjacency
            again = snap.adjacency
            assert materialized() == 1  # cached after first touch
        assert first is again
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, tiny_graph[0].adjacency)

    def test_copy_preserves_backing_and_shares_nothing(self, tiny_graph):
        graph = DynamicAttributedGraph.from_store(tiny_graph.store)
        with track_dense_materializations() as materialized:
            dup = graph.copy()
            assert materialized() == 0  # no densification on copy
        assert not np.shares_memory(dup.store.src, graph.store.src)
        assert not np.shares_memory(dup.store.attributes, graph.store.attributes)
        assert dup == graph

    def test_attribute_tensor_view_is_readonly(self, tiny_graph):
        graph = DynamicAttributedGraph.from_store(tiny_graph.store)
        block = graph.attribute_tensor()
        with pytest.raises(ValueError):
            block[0, 0, 0] = 99.0

    def test_truncated_stays_store_backed(self, tiny_graph):
        graph = DynamicAttributedGraph.from_store(tiny_graph.store)
        prefix = graph.truncated(2)
        assert np.shares_memory(prefix.store.src, graph.store.src)
        assert prefix == tiny_graph.truncated(2)

    def test_attribute_tensor_zero_copy(self, tiny_graph):
        graph = DynamicAttributedGraph.from_store(tiny_graph.store)
        assert np.shares_memory(
            graph.attribute_tensor(), graph.store.attributes
        )
