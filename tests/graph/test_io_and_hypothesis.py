"""Persistence round-trips and property-based graph invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import DynamicAttributedGraph, GraphSnapshot
from repro.graph import io as graph_io


class TestIO:
    def test_roundtrip(self, tiny_graph, tmp_path):
        path = tmp_path / "graph.npz"
        graph_io.save(tiny_graph, path)
        loaded = graph_io.load(path)
        assert loaded == tiny_graph

    def test_roundtrip_no_attrs(self, structure_only_graph, tmp_path):
        path = tmp_path / "graph.npz"
        graph_io.save(structure_only_graph, path)
        assert graph_io.load(path) == structure_only_graph

    def test_version_check(self, tiny_graph, tmp_path):
        path = tmp_path / "graph.npz"
        np.savez_compressed(
            path,
            version=np.array(99),
            adjacency=tiny_graph.adjacency_tensor(),
            attributes=tiny_graph.attribute_tensor(),
        )
        with pytest.raises(ValueError, match="version"):
            graph_io.load(path)


@st.composite
def random_dynamic_graph(draw):
    n = draw(st.integers(2, 8))
    t = draw(st.integers(1, 4))
    f = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    snaps = []
    for _ in range(t):
        adj = (rng.random((n, n)) < 0.3).astype(float)
        np.fill_diagonal(adj, 0.0)
        attrs = rng.normal(size=(n, f))
        snaps.append(GraphSnapshot(adj, attrs))
    return DynamicAttributedGraph(snaps)


@settings(max_examples=30, deadline=None)
@given(random_dynamic_graph())
def test_temporal_edge_count_invariant(graph):
    per_step = sum(snap.num_edges for snap in graph)
    assert per_step == graph.num_temporal_edges == graph.store.num_edges


@settings(max_examples=30, deadline=None)
@given(random_dynamic_graph())
def test_degree_sum_equals_edge_count(graph):
    for snap in graph:
        assert snap.in_degrees().sum() == snap.num_edges
        assert snap.out_degrees().sum() == snap.num_edges


@settings(max_examples=30, deadline=None)
@given(random_dynamic_graph())
def test_tensor_roundtrip(graph):
    rebuilt = DynamicAttributedGraph.from_tensors(
        graph.adjacency_tensor(), graph.attribute_tensor()
    )
    assert rebuilt == graph


@settings(max_examples=20, deadline=None)
@given(random_dynamic_graph())
def test_save_load_roundtrip(graph):
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.npz")
        graph_io.save(graph, path)
        assert graph_io.load(path) == graph
