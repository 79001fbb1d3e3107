"""Gradient checks for Tensor operator methods vs finite differences.

Forwards run inside ``with Tape():`` (the ops record there) and the
tape's VJPs are compared with central differences of the tape-free
forward.
"""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor

from tests.conftest import numeric_gradient


def check_unary(op, x_data, tol=1e-5):
    x = Tensor(x_data.copy(), requires_grad=True)
    with Tape():
        out = op(x)
        out.sum().backward()
    num = numeric_gradient(lambda a: float(op(Tensor(a)).sum().data), x_data.copy())
    np.testing.assert_allclose(x.grad, num, rtol=tol, atol=tol)


def check_binary(op, a_data, b_data, tol=1e-5):
    a = Tensor(a_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    with Tape():
        op(a, b).sum().backward()
    num_a = numeric_gradient(
        lambda x: float(op(Tensor(x), Tensor(b_data)).sum().data), a_data.copy()
    )
    num_b = numeric_gradient(
        lambda x: float(op(Tensor(a_data), Tensor(x)).sum().data), b_data.copy()
    )
    np.testing.assert_allclose(a.grad, num_a, rtol=tol, atol=tol)
    np.testing.assert_allclose(b.grad, num_b, rtol=tol, atol=tol)


class TestArithmetic:
    def test_add(self, rng):
        check_binary(lambda a, b: a + b, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_sub(self, rng):
        check_binary(lambda a, b: a - b, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_mul(self, rng):
        check_binary(lambda a, b: a * b, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_div(self, rng):
        b = rng.normal(size=(3, 4))
        b[np.abs(b) < 0.3] = 0.5  # keep away from zero
        check_binary(lambda a, x: a / x, rng.normal(size=(3, 4)), b)

    def test_neg(self, rng):
        check_unary(lambda x: -x, rng.normal(size=(4,)))

    def test_pow(self, rng):
        x = np.abs(rng.normal(size=(3, 3))) + 0.5
        check_unary(lambda t: t**3.0, x)

    def test_pow_tensor_exponent_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(TypeError):
            x ** Tensor(np.ones(3))

    def test_scalar_operands(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape():
            out = (2.0 * x + 1.0 - 0.5) / 2.0
            out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_rsub_rdiv(self):
        x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        with Tape():
            (1.0 - x).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])
        x.zero_grad()
        with Tape():
            (8.0 / x).sum().backward()
        np.testing.assert_allclose(x.grad, -8.0 / np.array([4.0, 16.0]))


class TestMatmul:
    def test_matmul_2d(self, rng):
        check_binary(lambda a, b: a @ b, rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))

    def test_matmul_vec(self, rng):
        check_binary(lambda a, b: a @ b, rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_matmul_shapes(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((3, 5)))
        assert (a @ b).shape == (2, 5)


class TestReductions:
    def test_sum_all(self, rng):
        check_unary(lambda x: x.sum(), rng.normal(size=(3, 4)))

    def test_sum_axis(self, rng):
        check_unary(lambda x: x.sum(axis=0), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape():
            out = x.sum(axis=1, keepdims=True)
            assert out.shape == (3, 1)
            out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_mean(self, rng):
        check_unary(lambda x: x.mean(), rng.normal(size=(4, 5)))

    def test_mean_axis(self, rng):
        check_unary(lambda x: x.mean(axis=1), rng.normal(size=(4, 5)))

    def test_max(self, rng):
        x = rng.normal(size=(3, 4))
        check_unary(lambda t: t.max(axis=1), x)

    def test_max_tie_subgradient(self):
        x = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        with Tape():
            x.max(axis=1).sum().backward()
        # ties split the gradient: still a valid subgradient summing to 1
        assert pytest.approx(1.0) == x.grad.sum()


class TestShapeOps:
    def test_reshape(self, rng):
        check_unary(lambda x: (x.reshape(6, 2) * 2.0), rng.normal(size=(3, 4)))

    def test_transpose(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        check_binary(lambda x, y: x.transpose() @ y, a, b)

    def test_transpose_axes(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        with Tape():
            out = x.transpose(2, 0, 1)
            assert out.shape == (4, 2, 3)
            out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_getitem_rows(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        with Tape():
            x[np.array([0, 2, 2])].sum().backward()
        expected = np.zeros((5, 3))
        expected[0] = 1.0
        expected[2] = 2.0  # repeated index accumulates
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_slice(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        with Tape():
            x[1:3].sum().backward()
        expected = np.zeros((5, 3))
        expected[1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_expand_squeeze(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape():
            out = x.expand_dims(1)
            assert out.shape == (3, 1, 4)
            assert out.squeeze(1).shape == (3, 4)
            out.squeeze(1).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))


class TestBackwardSemantics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape(), pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_explicit_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape():
            (x * 3).backward(np.full((2, 2), 2.0))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 6.0))

    def test_grad_shape_mismatch(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape(), pytest.raises(ValueError):
            (x * 3).backward(np.ones(3))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            (x * 2).sum().backward()
        with Tape():
            (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_diamond_graph_accumulation(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape():
            y = x * 3
            z = y + y * y  # two paths through y
            z.sum().backward()
        # dz/dx = 3 + 2*y*3 = 3 + 36 = 39
        np.testing.assert_allclose(x.grad, [39.0])

    def test_no_grad_blocks_tape(self):
        from repro.autodiff import no_grad

        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape, no_grad():
            y = x * 2
        assert not y.requires_grad
        assert len(tape) == 0

    def test_no_grad_is_thread_local(self):
        """no_grad in one thread must not disable recording in others."""
        import threading

        from repro.autodiff import is_grad_enabled, no_grad

        seen = {}
        release = threading.Event()

        def hold_no_grad():
            with no_grad():
                release.wait(timeout=5)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            seen["main"] = is_grad_enabled()
            x = Tensor(np.ones(2), requires_grad=True)
            with Tape():
                y = x * 3
            seen["recorded"] = y.requires_grad
        finally:
            release.set()
            worker.join()
        assert seen["main"] and seen["recorded"]
        assert is_grad_enabled()  # worker exit restored only its own state

    def test_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            y = (x * 2).detach()
            assert not y.requires_grad
            z = y * 3
            assert not z.requires_grad

    def test_repr(self):
        assert "shape=(2,)" in repr(Tensor(np.ones(2)))

    def test_ops_without_a_tape_return_constant_tensors(self):
        """Outside a tape every op is a plain forward call: the result
        is a constant Tensor holding the kernel's value."""
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = (x * 3.0).relu() + 1.0
        assert type(y) is Tensor and not y.requires_grad
        np.testing.assert_array_equal(y.data, [4.0, 1.0])

    def test_tensor_is_a_plain_holder(self):
        for name in ("backward", "_from_op", "_parents", "retain_grad"):
            assert not hasattr(Tensor(np.ones(1)), name)
