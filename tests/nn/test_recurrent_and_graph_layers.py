"""Tests for GRUCell, GINLayer, GATLayer and Time2Vec."""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor
from repro.nn import GATLayer, GINLayer, GRUCell, Time2Vec

from tests.conftest import numeric_gradient


class TestGRUCell:
    def test_output_shape(self, rng):
        cell = GRUCell(5, 8, rng=rng)
        h = cell(Tensor(rng.normal(size=(10, 5))), Tensor(np.zeros((10, 8))))
        assert h.shape == (10, 8)

    def test_state_bounded_by_tanh(self, rng):
        cell = GRUCell(3, 4, rng=rng)
        h = Tensor(np.zeros((6, 4)))
        for _ in range(50):
            h = cell(Tensor(rng.normal(size=(6, 3)) * 10), h)
        assert np.all(np.abs(h.data) <= 1.0 + 1e-9)

    def test_zero_update_gate_keeps_memoryless(self, rng):
        """With z≈0 (forced by large negative bias), h' ≈ candidate n."""
        cell = GRUCell(2, 3, rng=rng)
        cell.b_z.data[:] = -50.0  # z -> 0, h' = n
        x = Tensor(rng.normal(size=(4, 2)))
        h_prev = Tensor(rng.normal(size=(4, 3)))
        h = cell(x, h_prev)
        # n depends on x and r*h, but h' should not equal h_prev
        assert not np.allclose(h.data, h_prev.data)

    def test_identity_update_gate_preserves_state(self, rng):
        cell = GRUCell(2, 3, rng=rng)
        cell.b_z.data[:] = 50.0  # z -> 1, h' = h
        h_prev = Tensor(rng.normal(size=(4, 3)))
        h = cell(Tensor(rng.normal(size=(4, 2))), h_prev)
        np.testing.assert_allclose(h.data, h_prev.data, atol=1e-9)

    def test_gradient_through_time(self, rng):
        cell = GRUCell(2, 3, rng=rng)
        x_data = rng.normal(size=(4, 2))

        def run(x_np):
            h = Tensor(np.zeros((4, 3)))
            for _ in range(3):
                h = cell(Tensor(x_np), h)
            return h

        x = Tensor(x_data.copy(), requires_grad=True)
        with Tape():
            h = Tensor(np.zeros((4, 3)))
            for _ in range(3):
                h = cell(x, h)
            h.sum().backward()
        num = numeric_gradient(
            lambda a: float(run(a).sum().data), x_data.copy(), eps=1e-6
        )
        np.testing.assert_allclose(x.grad, num, atol=1e-4)


class TestGINLayer:
    def test_shapes(self, rng):
        layer = GINLayer(4, 6, rng=rng)
        adj = (rng.random((5, 5)) < 0.4).astype(float)
        out = layer(Tensor(rng.normal(size=(5, 4))), adj)
        assert out.shape == (5, 6)

    def test_isolated_node_uses_self_only(self, rng):
        layer = GINLayer(3, 3, rng=rng)
        adj = np.zeros((4, 4))
        h = rng.normal(size=(4, 3))
        out1 = layer(Tensor(h), adj).data
        # with no neighbours output depends only on own state
        h2 = h.copy()
        h2[1:] += 10.0  # perturb other nodes
        out2 = layer(Tensor(h2), adj).data
        np.testing.assert_allclose(out1[0], out2[0], atol=1e-12)

    def test_aggregation_sums_neighbours(self, rng):
        layer = GINLayer(2, 2, mlp_layers=1, rng=rng)
        # make the MLP identity-ish: single linear layer; check agg input
        adj = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        h = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 3.0]])
        layer.epsilon.data[:] = 0.0
        out = layer(Tensor(h), adj)
        expected_pre = np.array([[1.0, 5.0], [0.0, 2.0], [0.0, 3.0]])
        manual = layer.mlp(Tensor(expected_pre)).data
        np.testing.assert_allclose(out.data, manual)

    def test_epsilon_is_learnable(self, rng):
        layer = GINLayer(2, 2, rng=rng)
        adj = np.ones((3, 3)) - np.eye(3)
        with Tape():
            layer(Tensor(rng.normal(size=(3, 2))), adj).sum().backward()
        assert layer.epsilon.grad is not None


class TestGATLayer:
    def test_shapes(self, rng):
        layer = GATLayer(4, 6, rng=rng)
        adj = (rng.random((7, 7)) < 0.3).astype(float)
        np.fill_diagonal(adj, 0)
        out = layer(Tensor(rng.normal(size=(7, 4))), adj)
        assert out.shape == (7, 6)

    def test_isolated_node_finite(self, rng):
        layer = GATLayer(3, 3, rng=rng)
        adj = np.zeros((4, 4))
        out = layer(Tensor(rng.normal(size=(4, 3))), adj)
        assert np.all(np.isfinite(out.data))

    def test_masked_nodes_do_not_contribute(self, rng):
        layer = GATLayer(3, 3, rng=rng)
        adj = np.zeros((3, 3))
        adj[0, 1] = 1.0  # node 0 attends to node 1 (and itself)
        h = rng.normal(size=(3, 3))
        out1 = layer(Tensor(h), adj).data
        h2 = h.copy()
        h2[2] += 100.0  # node 2 is invisible to node 0
        out2 = layer(Tensor(h2), adj).data
        np.testing.assert_allclose(out1[0], out2[0], atol=1e-9)

    def test_gradients_flow(self, rng):
        layer = GATLayer(3, 3, rng=rng)
        adj = (rng.random((5, 5)) < 0.5).astype(float)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        with Tape():
            layer(x, adj).sum().backward()
        assert x.grad is not None
        assert layer.attn_src.grad is not None


class TestTime2Vec:
    def test_output_shape(self, rng):
        t2v = Time2Vec(8, rng=rng)
        assert t2v(3.0).shape == (8,)

    def test_first_coordinate_linear(self, rng):
        t2v = Time2Vec(4, rng=rng)
        v1 = t2v(1.0).data
        v2 = t2v(2.0).data
        v3 = t2v(3.0).data
        # linear head: equal increments
        np.testing.assert_allclose(v2[0] - v1[0], v3[0] - v2[0], atol=1e-12)

    def test_periodic_coords_bounded(self, rng):
        t2v = Time2Vec(6, rng=rng)
        for t in range(20):
            v = t2v(float(t)).data
            assert np.all(np.abs(v[1:]) <= 1.0 + 1e-12)

    def test_dim_one(self, rng):
        t2v = Time2Vec(1, rng=rng)
        assert t2v(5.0).shape == (1,)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            Time2Vec(0)

    def test_parameters_learnable(self, rng):
        t2v = Time2Vec(4, rng=rng)
        with Tape():
            t2v(2.0).sum().backward()
        assert t2v.w.grad is not None
        assert t2v.phi.grad is not None
