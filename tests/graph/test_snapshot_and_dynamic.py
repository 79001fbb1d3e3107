"""Tests for GraphSnapshot and DynamicAttributedGraph."""

import numpy as np
import pytest

from repro.graph import DynamicAttributedGraph, GraphSnapshot


def make_adj(n, edges):
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = 1.0
    return adj


class TestGraphSnapshot:
    def test_basic_counts(self):
        snap = GraphSnapshot(make_adj(4, [(0, 1), (1, 2), (2, 0)]))
        assert snap.num_nodes == 4
        assert snap.num_edges == 3
        assert snap.num_attributes == 0

    def test_degrees(self):
        snap = GraphSnapshot(make_adj(3, [(0, 1), (0, 2), (1, 2)]))
        np.testing.assert_allclose(snap.out_degrees(), [2, 1, 0])
        np.testing.assert_allclose(snap.in_degrees(), [0, 1, 2])
        np.testing.assert_allclose(snap.degrees(), [2, 2, 2])

    def test_edges_roundtrip(self):
        edges = [(0, 1), (2, 3), (3, 0)]
        snap = GraphSnapshot.from_edges(4, edges)
        assert sorted(snap.edges()) == sorted(edges)

    def test_from_edges_drops_self_loops(self):
        snap = GraphSnapshot.from_edges(3, [(0, 0), (0, 1)])
        assert snap.num_edges == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            GraphSnapshot(np.zeros((2, 3)))

    def test_rejects_non_binary(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = 0.5
        with pytest.raises(ValueError, match="binary"):
            GraphSnapshot(adj)

    def test_rejects_self_loops(self):
        adj = np.eye(3)
        with pytest.raises(ValueError, match="self-loops"):
            GraphSnapshot(adj)

    def test_rejects_nan_attributes(self):
        attrs = np.zeros((3, 2))
        attrs[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GraphSnapshot(np.zeros((3, 3)), attrs)

    def test_rejects_attribute_shape_mismatch(self):
        with pytest.raises(ValueError):
            GraphSnapshot(np.zeros((3, 3)), np.zeros((4, 2)))

    def test_dense_input_is_not_retained(self):
        adj = make_adj(3, [(0, 1)])
        attrs = np.ones((3, 2))
        snap = GraphSnapshot(adj, attrs)
        adj[1, 2] = 1.0
        assert snap.num_edges == 1
        assert snap.edges() == [(0, 1)]
        assert not np.shares_memory(snap.adjacency, adj)
        assert not snap.adjacency.flags.writeable

    def test_undirected_adjacency_symmetric(self):
        snap = GraphSnapshot(make_adj(3, [(0, 1)]))
        sym = snap.undirected_adjacency()
        np.testing.assert_array_equal(sym, sym.T)
        assert sym[0, 1] == sym[1, 0] == 1.0

    def test_equality(self):
        a = GraphSnapshot(make_adj(3, [(0, 1)]))
        b = GraphSnapshot(make_adj(3, [(0, 1)]))
        c = GraphSnapshot(make_adj(3, [(1, 0)]))
        assert a == b
        assert a != c


class TestDynamicAttributedGraph:
    def test_statistics(self, tiny_graph):
        stats = tiny_graph.statistics()
        assert stats.num_nodes == 16
        assert stats.num_timesteps == 4
        assert stats.num_attributes == 2
        assert stats.num_temporal_edges == tiny_graph.num_temporal_edges
        assert "N=16" in str(stats)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DynamicAttributedGraph([])

    def test_inconsistent_nodes_rejected(self):
        snaps = [
            GraphSnapshot(np.zeros((3, 3))),
            GraphSnapshot(np.zeros((4, 4))),
        ]
        with pytest.raises(ValueError, match="nodes"):
            DynamicAttributedGraph(snaps)

    def test_inconsistent_attrs_rejected(self):
        snaps = [
            GraphSnapshot(np.zeros((3, 3)), np.zeros((3, 2))),
            GraphSnapshot(np.zeros((3, 3)), np.zeros((3, 1))),
        ]
        with pytest.raises(ValueError, match="attributes"):
            DynamicAttributedGraph(snaps)

    def test_indexing_and_slicing(self, tiny_graph):
        assert isinstance(tiny_graph[0], GraphSnapshot)
        sliced = tiny_graph[1:3]
        assert isinstance(sliced, DynamicAttributedGraph)
        assert sliced.num_timesteps == 2
        assert sliced[0] == tiny_graph[1]

    def test_iteration(self, tiny_graph):
        assert len(list(tiny_graph)) == 4

    def test_tensors_shapes(self, tiny_graph):
        assert tiny_graph.adjacency_tensor().shape == (4, 16, 16)
        assert tiny_graph.attribute_tensor().shape == (4, 16, 2)

    def test_from_tensors_roundtrip(self, tiny_graph):
        rebuilt = DynamicAttributedGraph.from_tensors(
            tiny_graph.adjacency_tensor(), tiny_graph.attribute_tensor()
        )
        assert rebuilt == tiny_graph

    def test_from_tensors_bad_ndim(self):
        with pytest.raises(ValueError):
            DynamicAttributedGraph.from_tensors(np.zeros((3, 3)))

    def test_truncated(self, tiny_graph):
        prefix = tiny_graph.truncated(2)
        assert prefix.num_timesteps == 2
        with pytest.raises(IndexError):
            tiny_graph.truncated(0)
        with pytest.raises(IndexError):
            tiny_graph.truncated(99)

    def test_active_nodes(self):
        snaps = [GraphSnapshot(make_adj(4, [(0, 1)]))]
        g = DynamicAttributedGraph(snaps)
        np.testing.assert_array_equal(g.active_nodes(0), [0, 1])

    def test_copy_independent(self, tiny_graph):
        dup = tiny_graph.copy()
        assert dup == tiny_graph
        assert not np.shares_memory(dup.store.src, tiny_graph.store.src)
        assert not np.shares_memory(
            dup.store.attributes, tiny_graph.store.attributes
        )

    def test_snapshot_list_concatenates_into_one_store(self, tiny_graph):
        steps = [tiny_graph[2], GraphSnapshot(make_adj(16, [(3, 4)]),
                                              np.zeros((16, 2))),
                 tiny_graph[0]]
        graph = DynamicAttributedGraph(steps)
        assert graph.store.num_timesteps == 3
        np.testing.assert_array_equal(
            graph.store.edges_per_step(),
            [tiny_graph[2].num_edges, 1, tiny_graph[0].num_edges],
        )
        for got, want in zip(graph, steps):
            assert got == want
