"""Eq. 20–21 temporal difference metric tests (Figures 4–8)."""

import numpy as np
import pytest

from repro.graph import DynamicAttributedGraph, GraphSnapshot
from repro.metrics.difference import (
    attribute_difference_series,
    difference_alignment_error,
    structure_difference_series,
)


def two_step_graph(adj1, adj2, x1=None, x2=None):
    return DynamicAttributedGraph(
        [GraphSnapshot(adj1, x1), GraphSnapshot(adj2, x2)]
    )


class TestStructureDifference:
    def test_static_sequence_zero(self, tiny_snapshot):
        g = DynamicAttributedGraph([tiny_snapshot, tiny_snapshot])
        for metric in ("degree", "clustering", "coreness"):
            np.testing.assert_allclose(
                structure_difference_series(g, metric), 0.0
            )

    def test_length_is_t_minus_one(self, tiny_graph):
        series = structure_difference_series(tiny_graph, "degree")
        assert len(series) == tiny_graph.num_timesteps - 1

    def test_degree_difference_exact(self):
        n = 4
        a1 = np.zeros((n, n))
        a2 = np.zeros((n, n))
        a2[0, 1] = 1.0  # adds out-deg 1 to node0, in-deg 1 to node1
        g = two_step_graph(a1, a2)
        series = structure_difference_series(g, "degree")
        np.testing.assert_allclose(series, [2.0 / n])

    def test_unknown_metric(self, tiny_graph):
        with pytest.raises(KeyError):
            structure_difference_series(tiny_graph, "betweenness")

    def test_known_coreness_change(self):
        n = 5
        a1 = np.zeros((n, n))
        # snapshot2: a triangle raises coreness of 3 nodes to 2
        a2 = np.zeros((n, n))
        for u, v in [(0, 1), (1, 2), (0, 2)]:
            a2[u, v] = 1.0
        g = two_step_graph(a1, a2)
        series = structure_difference_series(g, "coreness")
        np.testing.assert_allclose(series, [3 * 2.0 / n])


class TestAttributeDifference:
    def test_static_zero(self):
        x = np.ones((4, 2))
        g = two_step_graph(np.zeros((4, 4)), np.zeros((4, 4)), x, x.copy())
        np.testing.assert_allclose(attribute_difference_series(g, "mae"), 0.0)
        np.testing.assert_allclose(attribute_difference_series(g, "rmse"), 0.0)

    def test_constant_shift_mae(self):
        x1 = np.zeros((4, 2))
        x2 = np.full((4, 2), 3.0)
        g = two_step_graph(np.zeros((4, 4)), np.zeros((4, 4)), x1, x2)
        np.testing.assert_allclose(attribute_difference_series(g, "mae"), [3.0])
        np.testing.assert_allclose(attribute_difference_series(g, "rmse"), [3.0])

    def test_rmse_upweights_outliers(self):
        x1 = np.zeros((4, 1))
        x2 = np.zeros((4, 1))
        x2[0] = 4.0  # one node jumps
        g = two_step_graph(np.zeros((4, 4)), np.zeros((4, 4)), x1, x2)
        mae = attribute_difference_series(g, "mae")[0]
        rmse = attribute_difference_series(g, "rmse")[0]
        assert rmse > mae

    def test_invalid_metric(self, tiny_graph):
        with pytest.raises(KeyError):
            attribute_difference_series(tiny_graph, "mape")

    def test_no_attributes_raises(self, structure_only_graph):
        with pytest.raises(ValueError):
            attribute_difference_series(structure_only_graph, "mae")


class TestAlignmentError:
    def test_identical_zero(self):
        s = np.array([1.0, 2.0, 3.0])
        assert difference_alignment_error(s, s) == pytest.approx(0.0)

    def test_truncates(self):
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([2.0])
        assert difference_alignment_error(a, b) == pytest.approx(1.0)

    def test_empty_nan(self):
        assert np.isnan(difference_alignment_error(np.array([]), np.array([])))
