"""Tests for Linear, MLP and the Module container protocol."""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor
from repro.nn import Linear, MLP, Module, Parameter
from repro.nn.linear import get_activation


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(7, 4))))
        assert out.shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_gradients_flow_to_params(self, rng):
        layer = Linear(4, 3, rng=rng)
        with Tape():
            layer(Tensor(rng.normal(size=(5, 4)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert layer.weight.grad.shape == (4, 3)

    def test_linear_is_affine(self, rng):
        layer = Linear(3, 2, rng=rng)
        x1 = rng.normal(size=(1, 3))
        x2 = rng.normal(size=(1, 3))
        y1 = layer(Tensor(x1)).data
        y2 = layer(Tensor(x2)).data
        y12 = layer(Tensor(x1 + x2)).data
        b = layer.bias.data
        np.testing.assert_allclose(y12 - b, (y1 - b) + (y2 - b), atol=1e-12)


class TestMLP:
    def test_forward_shapes(self, rng):
        mlp = MLP([4, 8, 8, 2], rng=rng)
        assert mlp(Tensor(rng.normal(size=(6, 4)))).shape == (6, 2)

    def test_too_few_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_out_activation(self, rng):
        mlp = MLP([3, 4, 2], out_activation="sigmoid", rng=rng)
        out = mlp(Tensor(rng.normal(size=(5, 3)))).data
        assert np.all((out >= 0) & (out <= 1))

    def test_unknown_activation_raises(self):
        with pytest.raises(KeyError):
            get_activation("swishish")

    def test_training_reduces_loss(self, rng):
        from repro.nn import Adam

        mlp = MLP([2, 16, 1], rng=rng)
        x = rng.normal(size=(64, 2))
        y = (x[:, 0] * x[:, 1])[:, None]
        opt = Adam(mlp.parameters(), lr=1e-2)
        losses = []
        for _ in range(60):
            with Tape():
                pred = mlp(Tensor(x))
                loss = ((pred - y) ** 2).mean()
                opt.zero_grad()
                loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < 0.5 * losses[0]


class TestModule:
    def test_named_parameters_nested(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 3, rng=rng)
                self.blocks = [Linear(3, 3, rng=rng), Linear(3, 1, rng=rng)]

        net = Net()
        names = dict(net.named_parameters())
        assert "a.weight" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert len(net.parameters()) == 6

    def test_num_parameters(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.inner = Linear(2, 2, rng=rng)

        net = Net()
        net.eval()
        assert not net.training and not net.inner.training
        net.train()
        assert net.training and net.inner.training

    def test_zero_grad(self, rng):
        layer = Linear(2, 2, rng=rng)
        with Tape():
            layer(Tensor(rng.normal(size=(3, 2)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        a = MLP([3, 5, 2], rng=rng)
        b = MLP([3, 5, 2], rng=np.random.default_rng(999))
        x = Tensor(rng.normal(size=(4, 3)))
        assert not np.allclose(a(x).data, b(x).data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_load_state_dict_missing_key(self, rng):
        a = MLP([3, 5, 2], rng=rng)
        with pytest.raises(KeyError):
            a.load_state_dict({})

    def test_load_state_dict_shape_mismatch(self, rng):
        a = Linear(3, 2, rng=rng)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 3))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_state_dict_is_copy(self, rng):
        a = Linear(2, 2, rng=rng)
        state = a.state_dict()
        state["weight"][:] = 99.0
        assert not np.allclose(a.weight.data, 99.0)
