"""Tests for the triad / temporal motif analytics."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DynamicAttributedGraph, GraphSnapshot
from repro.metrics.motifs import (
    TRIAD_NAMES,
    motif_count_series,
    motif_discrepancy,
    motif_persistence,
    motif_transition_matrix,
    triad_census,
)


def snapshot_from_edges(n, edges):
    return GraphSnapshot.from_edges(n, edges)


class TestTriadCensus:
    def test_empty_graph_all_003(self):
        census = triad_census(snapshot_from_edges(5, []))
        assert census["003"] == 10  # C(5,3)
        assert sum(census.values()) == 10

    def test_fewer_than_three_nodes(self):
        census = triad_census(snapshot_from_edges(2, [(0, 1)]))
        assert all(v == 0 for v in census.values())

    def test_single_edge_is_012(self):
        census = triad_census(snapshot_from_edges(3, [(0, 1)]))
        assert census["012"] == 1
        assert census["003"] == 0

    def test_mutual_dyad_is_102(self):
        census = triad_census(snapshot_from_edges(3, [(0, 1), (1, 0)]))
        assert census["102"] == 1

    def test_cycle_is_030C(self):
        census = triad_census(snapshot_from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        assert census["030C"] == 1

    def test_transitive_is_030T(self):
        census = triad_census(snapshot_from_edges(3, [(0, 1), (0, 2), (2, 1)]))
        assert census["030T"] == 1

    def test_complete_is_300(self):
        edges = [(i, j) for i in range(3) for j in range(3) if i != j]
        census = triad_census(snapshot_from_edges(3, edges))
        assert census["300"] == 1

    def test_out_star_is_021D(self):
        census = triad_census(snapshot_from_edges(3, [(1, 0), (1, 2)]))
        assert census["021D"] == 1

    def test_in_star_is_021U(self):
        census = triad_census(snapshot_from_edges(3, [(0, 1), (2, 1)]))
        assert census["021U"] == 1

    def test_path_is_021C(self):
        census = triad_census(snapshot_from_edges(3, [(0, 1), (1, 2)]))
        assert census["021C"] == 1

    def test_total_is_number_of_triples(self):
        rng = np.random.default_rng(0)
        adj = (rng.random((9, 9)) < 0.3).astype(float)
        np.fill_diagonal(adj, 0.0)
        census = triad_census(GraphSnapshot(adj))
        assert sum(census.values()) == 9 * 8 * 7 // 6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("density", [0.1, 0.4, 0.8])
    def test_matches_networkx(self, seed, density):
        rng = np.random.default_rng(seed)
        n = 8
        adj = (rng.random((n, n)) < density).astype(float)
        np.fill_diagonal(adj, 0.0)
        ours = triad_census(GraphSnapshot(adj))
        g = nx.from_numpy_array(adj, create_using=nx.DiGraph)
        theirs = nx.triadic_census(g)
        assert ours == {k: int(v) for k, v in theirs.items()}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 10))
def test_property_census_matches_networkx(seed, n):
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) < rng.uniform(0.05, 0.9)).astype(float)
    np.fill_diagonal(adj, 0.0)
    ours = triad_census(GraphSnapshot(adj))
    theirs = nx.triadic_census(nx.from_numpy_array(adj, create_using=nx.DiGraph))
    assert ours == {k: int(v) for k, v in theirs.items()}


class TestMotifSeries:
    def graph(self):
        s1 = snapshot_from_edges(4, [(0, 1), (1, 2), (2, 0)])
        s2 = snapshot_from_edges(4, [(0, 1), (1, 2)])
        return DynamicAttributedGraph([s1, s2])

    def test_series_shape_and_order(self):
        series = motif_count_series(self.graph())
        assert series.shape == (2, 16)
        assert series[0, TRIAD_NAMES.index("030C")] == 1
        assert series[1, TRIAD_NAMES.index("021C")] == 1

    def test_transition_matrix_counts_triples(self):
        trans = motif_transition_matrix(self.graph())
        assert trans.sum() == 4  # C(4,3) triples, one step
        i030c = TRIAD_NAMES.index("030C")
        i021c = TRIAD_NAMES.index("021C")
        assert trans[i030c, i021c] == 1

    def test_transition_matrix_single_snapshot_empty(self):
        g = DynamicAttributedGraph([snapshot_from_edges(4, [(0, 1)])])
        assert motif_transition_matrix(g).sum() == 0

    def test_persistence_probabilities(self):
        s = snapshot_from_edges(4, [(0, 1), (1, 2), (2, 0)])
        g = DynamicAttributedGraph([s, s, s])
        pers = motif_persistence(g)
        assert pers["030C"] == 1.0
        assert np.isnan(pers["300"])  # class never observed

    def test_identical_graphs_zero_discrepancy(self):
        g = self.graph()
        assert motif_discrepancy(g, g) == 0.0

    def test_discrepancy_positive_when_different(self):
        g = self.graph()
        empty = DynamicAttributedGraph(
            [snapshot_from_edges(4, []), snapshot_from_edges(4, [])]
        )
        assert motif_discrepancy(g, empty) > 0

    def test_discrepancy_invented_class_penalized(self):
        g1 = DynamicAttributedGraph([snapshot_from_edges(3, [])])
        g2 = DynamicAttributedGraph([snapshot_from_edges(3, [(0, 1)])])
        # original has only 003 triads; generated invents 012, which only
        # the include-empty mode penalizes (one 1.0 term out of 15 extras)
        strict = motif_discrepancy(g1, g1, exclude_empty=False)
        invented = motif_discrepancy(g1, g2, exclude_empty=False)
        assert strict == 0.0
        assert invented > strict
