"""Appendix A-C extended attribute metric tests."""

import numpy as np
import pytest

from repro.graph import DynamicAttributedGraph, GraphSnapshot
from repro.metrics.extended import (
    attribute_autocorrelation,
    attribute_ks,
    attribute_structure_coupling,
    correlation_matrix_distance,
    extended_attribute_report,
    ks_statistic,
)


def graph_from_attrs(attr_list, adj=None):
    n = attr_list[0].shape[0]
    if adj is None:
        adj = np.zeros((n, n))
    return DynamicAttributedGraph(
        [GraphSnapshot(adj, x) for x in attr_list]
    )


class TestKS:
    def test_identical_zero(self, rng):
        x = rng.normal(size=200)
        assert ks_statistic(x, x) == pytest.approx(0.0)

    def test_disjoint_one(self):
        assert ks_statistic(np.zeros(50), np.ones(50)) == pytest.approx(1.0)

    def test_graph_level(self, rng):
        g1 = graph_from_attrs([rng.normal(size=(50, 2)) for _ in range(3)])
        g2 = graph_from_attrs([rng.normal(size=(50, 2)) + 5 for _ in range(3)])
        assert attribute_ks(g1, g2) > 0.8

    def test_no_attrs_nan(self, structure_only_graph):
        assert np.isnan(attribute_ks(structure_only_graph, structure_only_graph))


class TestAutocorrelation:
    def test_persistent_high(self, rng):
        base = rng.normal(size=(40, 2))
        g = graph_from_attrs([base + 0.01 * rng.normal(size=(40, 2))
                              for _ in range(4)])
        assert attribute_autocorrelation(g) > 0.9

    def test_independent_low(self, rng):
        g = graph_from_attrs([rng.normal(size=(40, 2)) for _ in range(4)])
        assert abs(attribute_autocorrelation(g)) < 0.3

    def test_constant_zero(self):
        g = graph_from_attrs([np.ones((10, 2))] * 3)
        assert attribute_autocorrelation(g) == 0.0

    def test_requires_two_steps(self, rng):
        g = graph_from_attrs([rng.normal(size=(10, 2))])
        with pytest.raises(ValueError):
            attribute_autocorrelation(g)

    def test_requires_attributes(self, structure_only_graph):
        with pytest.raises(ValueError):
            attribute_autocorrelation(structure_only_graph)


class TestCorrelationMatrixDistance:
    def test_self_zero(self, rng):
        g = graph_from_attrs([rng.normal(size=(50, 3)) for _ in range(2)])
        assert correlation_matrix_distance(g, g) == pytest.approx(0.0)

    def test_needs_two_dims(self, rng):
        g = graph_from_attrs([rng.normal(size=(10, 1))])
        with pytest.raises(ValueError):
            correlation_matrix_distance(g, g)

    def test_detects_decorrelation(self, rng):
        base = rng.normal(size=(100, 1))
        corr = np.concatenate([base, base + 0.1 * rng.normal(size=(100, 1))], axis=1)
        ind = rng.normal(size=(100, 2))
        g_corr = graph_from_attrs([corr])
        g_ind = graph_from_attrs([ind])
        assert correlation_matrix_distance(g_corr, g_ind) > 0.5


class TestCoupling:
    def test_coupled_graph_nonzero(self, rng):
        n = 40
        adj = np.zeros((n, n))
        # hub nodes 0..4 get many in-edges
        for v in range(5):
            for u in range(5, n):
                if rng.random() < 0.6:
                    adj[u, v] = 1.0
        snap_attrs = np.zeros((n, 1))
        deg = adj.sum(axis=0) + adj.sum(axis=1)
        snap_attrs[:, 0] = deg + 0.01 * rng.normal(size=n)
        g = graph_from_attrs([snap_attrs], adj=adj)
        assert attribute_structure_coupling(g) > 0.9

    def test_uncoupled_near_zero(self, rng):
        n = 60
        adj = (rng.random((n, n)) < 0.1).astype(float)
        np.fill_diagonal(adj, 0.0)
        g = graph_from_attrs([rng.normal(size=(n, 1))], adj=adj)
        assert attribute_structure_coupling(g) < 0.4

    def test_requires_attributes(self, structure_only_graph):
        with pytest.raises(ValueError):
            attribute_structure_coupling(structure_only_graph)


class TestReport:
    def test_keys(self, tiny_graph):
        report = extended_attribute_report(tiny_graph, tiny_graph)
        assert {"ks", "autocorr_original", "autocorr_generated",
                "coupling_original", "coupling_generated",
                "pagerank_divergence", "corr_matrix_dist"} == set(report)
        assert report["ks"] == pytest.approx(0.0)
