"""Gradient and semantics checks for repro.autodiff.functional."""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor, functional as F

from tests.conftest import numeric_gradient


def check_unary(op, x_data, tol=1e-5):
    x = Tensor(x_data.copy(), requires_grad=True)
    with Tape():
        op(x).sum().backward()
    num = numeric_gradient(lambda a: float(op(Tensor(a)).sum().data), x_data.copy())
    np.testing.assert_allclose(x.grad, num, rtol=tol, atol=tol)


class TestNonlinearities:
    def test_exp(self, rng):
        check_unary(F.exp, rng.normal(size=(3, 4)))

    def test_log(self, rng):
        check_unary(F.log, np.abs(rng.normal(size=(3, 4))) + 0.5)

    def test_log_eps(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        out = F.log(x, eps=1e-6)
        assert np.all(np.isfinite(out.data))

    def test_sqrt(self, rng):
        check_unary(F.sqrt, np.abs(rng.normal(size=(4,))) + 0.1)

    def test_abs(self, rng):
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_unary(F.abs_, x)

    def test_sigmoid(self, rng):
        check_unary(F.sigmoid, rng.normal(size=(3, 4)) * 3)

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor(np.array([-1000.0, 1000.0]))
        out = F.sigmoid(x)
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_tanh(self, rng):
        check_unary(F.tanh, rng.normal(size=(3, 4)))

    def test_relu(self, rng):
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_unary(F.relu, x)

    def test_leaky_relu(self, rng):
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_unary(lambda t: F.leaky_relu(t, 0.2), x)

    def test_elu(self, rng):
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_unary(F.elu, x)

    def test_softplus(self, rng):
        check_unary(F.softplus, rng.normal(size=(4,)))

    def test_softplus_large_input(self):
        out = F.softplus(Tensor(np.array([500.0])))
        assert np.isfinite(out.data).all()


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(5, 7))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5))

    def test_softmax_grad(self, rng):
        x = rng.normal(size=(3, 4))
        check_unary(lambda t: (F.softmax(t, axis=1) * np.arange(4)), x)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(2, 5))
        a = F.softmax(Tensor(x), axis=1).data
        b = F.softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(
            F.log_softmax(x, axis=1).data,
            np.log(F.softmax(x, axis=1).data),
            atol=1e-12,
        )

    def test_log_softmax_grad(self, rng):
        x = rng.normal(size=(3, 4))
        check_unary(lambda t: (F.log_softmax(t, axis=1) * np.arange(4)), x)

    def test_logsumexp_matches_numpy(self, rng):
        from scipy.special import logsumexp as scipy_lse

        x = rng.normal(size=(3, 5))
        out = F.logsumexp(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data, scipy_lse(x, axis=1))

    def test_logsumexp_grad(self, rng):
        x = rng.normal(size=(3, 5))
        check_unary(lambda t: F.logsumexp(t, axis=1), x)

    def test_logsumexp_large_values_stable(self):
        out = F.logsumexp(Tensor(np.array([[1000.0, 1000.0]])), axis=1)
        np.testing.assert_allclose(out.data, [1000.0 + np.log(2)])


class TestStructuralOps:
    def test_clip_grad_masks_outside(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        with Tape():
            F.clip(x, -1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_concat_axis1(self, rng):
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape():
            out = F.concat([a, b], axis=1)
            assert out.shape == (3, 6)
            (out * np.arange(6)).sum().backward()
        np.testing.assert_allclose(a.grad, np.tile([0.0, 1.0], (3, 1)))
        np.testing.assert_allclose(b.grad, np.tile([2.0, 3.0, 4.0, 5.0], (3, 1)))

    def test_concat_axis0(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        with Tape():
            out = F.concat([a, b], axis=0)
            assert out.shape == (3, 3)
            out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((1, 3)))

    def test_stack(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with Tape():
            out = F.stack([a, b], axis=0)
            assert out.shape == (2, 3)
            (out[0] * 2 + out[1] * 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 2.0))
        np.testing.assert_allclose(b.grad, np.full(3, 3.0))

    def test_where_select_and_grads(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0]), requires_grad=True)
        with Tape():
            out = F.where(np.array([True, False]), a, b)
            np.testing.assert_allclose(out.data, [1.0, 20.0])
            out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])

    def test_maximum_minimum(self):
        a = Tensor(np.array([1.0, 5.0]))
        b = Tensor(np.array([3.0, 2.0]))
        np.testing.assert_allclose(F.maximum(a, b).data, [3.0, 5.0])
        np.testing.assert_allclose(F.minimum(a, b).data, [1.0, 2.0])

    def test_norm(self, rng):
        x = rng.normal(size=(4, 3))
        check_unary(lambda t: F.norm(t, axis=1), x, tol=1e-4)

    def test_norm_at_zero_finite_grad(self):
        x = Tensor(np.zeros((1, 3)), requires_grad=True)
        with Tape():
            F.norm(x, axis=1).sum().backward()
        assert np.all(np.isfinite(x.grad))


class TestDropout:
    def test_dropout_eval_identity(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, rng, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_training_zeroes_and_scales(self):
        gen = np.random.default_rng(0)
        x = Tensor(np.ones((100, 100)))
        out = F.dropout(x, 0.5, gen, training=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling
        frac = (out.data > 0).mean()
        assert 0.4 < frac < 0.6

    def test_dropout_p_zero(self, rng):
        x = Tensor(np.ones(5))
        out = F.dropout(x, 0.0, rng, training=True)
        np.testing.assert_allclose(out.data, 1.0)


class TestTensorMethodAttachment:
    def test_methods_exist(self, rng):
        x = Tensor(np.abs(rng.normal(size=(3,))) + 1.0)
        np.testing.assert_allclose(x.exp().data, np.exp(x.data))
        np.testing.assert_allclose(x.log().data, np.log(x.data))
        np.testing.assert_allclose(x.sigmoid().data, 1 / (1 + np.exp(-x.data)))
        np.testing.assert_allclose(x.tanh().data, np.tanh(x.data))
