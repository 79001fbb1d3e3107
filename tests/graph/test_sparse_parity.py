"""Parity: vectorized sparse kernels vs their reference implementations.

Every vectorized kernel in :mod:`repro.graph.sparse` must reproduce its
``_reference_*`` Python implementation exactly — on random directed
graphs, on inputs with self-loops and duplicate edges (dropped and
deduplicated by the constructor), and on empty corner cases.
"""

import numpy as np
import pytest

from repro.graph.sparse import SparseDirectedGraph


def _random_graph(seed: int, n: int, e: int) -> SparseDirectedGraph:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, max(n, 1), size=(e, 2))
    return SparseDirectedGraph(n, edges)


RANDOM_CASES = [
    (0, 1, 0),
    (1, 5, 3),
    (2, 30, 60),       # sparse
    (3, 40, 500),      # dense-ish, many duplicates / self-loops
    (4, 80, 200),
    (5, 120, 900),
]


class TestVectorizedParity:
    @pytest.mark.parametrize("seed,n,e", RANDOM_CASES)
    def test_clustering(self, seed, n, e):
        g = _random_graph(seed, n, e)
        np.testing.assert_allclose(
            g.clustering_coefficients(),
            g._reference_clustering_coefficients(),
            atol=1e-12,
        )

    @pytest.mark.parametrize("seed,n,e", RANDOM_CASES)
    def test_components(self, seed, n, e):
        g = _random_graph(seed, n, e)
        assert (
            g.connected_component_sizes()
            == g._reference_connected_component_sizes()
        )

    @pytest.mark.parametrize("seed,n,e", RANDOM_CASES)
    def test_wedges(self, seed, n, e):
        g = _random_graph(seed, n, e)
        assert g.wedge_count() == g._reference_wedge_count()

    @pytest.mark.parametrize("seed,n,e", RANDOM_CASES)
    def test_neighbor_sets(self, seed, n, e):
        g = _random_graph(seed, n, e)
        assert (
            g.undirected_neighbor_sets()
            == g._reference_undirected_neighbor_sets()
        )

    def test_clustering_searchsorted_branch(self):
        """Graphs too large for the dense membership matrix still agree."""
        g = _random_graph(9, 4200, 9000)  # 4200² > 1<<24 → CSR keys path
        np.testing.assert_allclose(
            g.clustering_coefficients(),
            g._reference_clustering_coefficients(),
            atol=1e-12,
        )

    def test_self_loops_and_duplicates_dropped(self):
        edges = np.array([[0, 0], [1, 2], [1, 2], [2, 1], [3, 3], [0, 1]])
        g = SparseDirectedGraph(4, edges)
        assert g.num_edges == 3  # (0,1), (1,2), (2,1)
        np.testing.assert_allclose(
            g.clustering_coefficients(),
            g._reference_clustering_coefficients(),
        )
        assert (
            g.connected_component_sizes()
            == g._reference_connected_component_sizes()
        )


class TestCornerCases:
    def test_zero_nodes(self):
        g = SparseDirectedGraph(0, np.zeros((0, 2)))
        assert g.num_edges == 0
        assert g.connected_component_sizes() == []
        assert g.wedge_count() == 0
        assert g.clustering_coefficients().shape == (0,)
        assert g.out_degrees().shape == (0,)
        assert g.in_degrees().shape == (0,)

    def test_nodes_without_edges(self):
        g = SparseDirectedGraph(5, np.zeros((0, 2)))
        assert g.connected_component_sizes() == [1, 1, 1, 1, 1]
        assert g.wedge_count() == 0
        np.testing.assert_array_equal(g.clustering_coefficients(), np.zeros(5))

    def test_negative_num_nodes_rejected(self):
        with pytest.raises(ValueError):
            SparseDirectedGraph(-1, np.zeros((0, 2)))

    def test_all_self_loops_collapse_to_empty(self):
        g = SparseDirectedGraph(3, np.array([[0, 0], [1, 1], [2, 2]]))
        assert g.num_edges == 0
        assert g.connected_component_sizes() == [1, 1, 1]


class TestDegreesAndHasEdge:
    def test_degree_dtypes_consistent(self):
        g = _random_graph(6, 20, 50)
        assert g.in_degrees().dtype == np.int64
        assert g.out_degrees().dtype == np.int64
        assert g.in_degrees().sum() == g.num_edges
        assert g.out_degrees().sum() == g.num_edges

    def test_has_edge_matches_dense(self):
        g = _random_graph(7, 25, 120)
        dense = g.to_dense()
        for u in range(25):
            for v in range(25):
                assert g.has_edge(u, v) == bool(dense[u, v])

    def test_has_edge_rejects_out_of_range(self):
        g = _random_graph(8, 4, 5)
        with pytest.raises(ValueError):
            g.has_edge(0, 4)
        with pytest.raises(ValueError):
            g.has_edge(-1, 0)


def _unique_rows_edges(n, edges):
    """The ``np.unique(axis=0)`` canonicalization the key dedup replaced."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)


def _unique_rows_symmetric_csr(g):
    """The ``np.unique(axis=0)`` symmetrized CSR the key dedup replaced."""
    edges = g.edge_array()
    both = np.unique(np.concatenate([edges, edges[:, ::-1]], axis=0), axis=0)
    counts = np.bincount(both[:, 0], minlength=g.num_nodes)
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
    )
    return indptr, np.ascontiguousarray(both[:, 1])


def _with_antiparallel(seed, n, e):
    """Random edges, then every third one repeated and reversed."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, max(n, 1), size=(e, 2))
    return np.concatenate([edges, edges[::3], edges[::3, ::-1]], axis=0)


class TestKeyDedupPins:
    """Sort-and-diff key dedup gives the arrays ``np.unique(axis=0)``
    gave: the same values and the same int64 dtypes."""

    CASES = RANDOM_CASES + [(10, 5, 0), (11, 1, 4), (12, 200, 3000)]

    @pytest.mark.parametrize("seed,n,e", CASES)
    def test_constructor_edges(self, seed, n, e):
        edges = _with_antiparallel(seed, n, e)
        got = SparseDirectedGraph(n, edges).edge_array()
        want = _unique_rows_edges(n, edges)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed,n,e", CASES)
    def test_symmetric_csr(self, seed, n, e):
        g = SparseDirectedGraph(n, _with_antiparallel(seed, n, e))
        indptr, indices = g.symmetric_csr()
        want_indptr, want_indices = _unique_rows_symmetric_csr(g)
        assert indptr.dtype == want_indptr.dtype == np.int64
        assert indices.dtype == want_indices.dtype == np.int64
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(indices, want_indices)

    def test_single_node_and_no_edges(self):
        for g in (
            SparseDirectedGraph(1, np.array([[0, 0]])),
            SparseDirectedGraph(4, np.zeros((0, 2))),
            SparseDirectedGraph(0, np.zeros((0, 2))),
        ):
            indptr, indices = g.symmetric_csr()
            np.testing.assert_array_equal(
                indptr, np.zeros(g.num_nodes + 1, dtype=np.int64)
            )
            assert indptr.dtype == indices.dtype == np.int64
            assert indices.shape == (0,)
            assert g.edge_array().shape == (0, 2)
            assert g.edge_array().dtype == np.int64

    def test_store_view_matches_constructor(self):
        """A store's pre-sorted view and a constructor dedup agree."""
        edges = _with_antiparallel(13, 30, 90)
        built = SparseDirectedGraph(30, edges)
        adopted = SparseDirectedGraph.from_sorted_edges(
            30, _unique_rows_edges(30, edges)
        )
        for a, b in zip(built.symmetric_csr(), adopted.symmetric_csr()):
            np.testing.assert_array_equal(a, b)
