"""Broadcast gradient correctness (unbroadcast) — the trickiest part of
any numpy autodiff."""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor
from repro.autodiff.ops import unbroadcast

from tests.conftest import numeric_gradient


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert unbroadcast(g, (3, 4)).shape == (3, 4)

    def test_leading_axis(self):
        g = np.ones((5, 3, 4))
        out = unbroadcast(g, (3, 4))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, np.full((3, 4), 5.0))

    def test_kept_singleton(self):
        g = np.ones((3, 4))
        out = unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        np.testing.assert_allclose(out, np.full((3, 1), 4.0))

    def test_scalar(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, ())
        assert out.shape == ()
        assert out == 6.0


@pytest.mark.parametrize(
    "shape_a,shape_b",
    [
        ((3, 4), (4,)),
        ((3, 4), (1, 4)),
        ((3, 1), (1, 4)),
        ((2, 3, 4), (3, 4)),
        ((2, 3, 4), (1, 1, 4)),
        ((5,), ()),
    ],
)
@pytest.mark.parametrize("op_name", ["add", "mul", "sub"])
def test_broadcast_grads_match_numeric(shape_a, shape_b, op_name, rng):
    ops = {
        "add": lambda a, b: a + b,
        "mul": lambda a, b: a * b,
        "sub": lambda a, b: a - b,
    }
    op = ops[op_name]
    a_data = rng.normal(size=shape_a)
    b_data = rng.normal(size=shape_b)
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
    assert a.grad.shape == shape_a
    assert b.grad.shape == shape_b
    np.testing.assert_allclose(a.grad, num_a, atol=1e-6)
    np.testing.assert_allclose(b.grad, num_b, atol=1e-6)


def test_pairwise_difference_pattern(rng):
    """The MixBernoulli pairwise pattern: s[:,None,:] - s[None,:,:]."""
    s_data = rng.normal(size=(5, 3))
    s = Tensor(s_data.copy(), requires_grad=True)
    with Tape():
        diff = s.expand_dims(1) - s.expand_dims(0)
        assert diff.shape == (5, 5, 3)
        (diff**2).sum().backward()
    num = numeric_gradient(
        lambda x: float(
            ((x[:, None, :] - x[None, :, :]) ** 2).sum()
        ),
        s_data.copy(),
    )
    np.testing.assert_allclose(s.grad, num, atol=1e-5)


def test_row_broadcast_time_vector(rng):
    """Recurrence pattern: (1, dT) vector broadcast to (N, dT)."""
    v = Tensor(rng.normal(size=(4,)), requires_grad=True)
    with Tape():
        rows = v.expand_dims(0) + np.zeros((6, 1))
        assert rows.shape == (6, 4)
        rows.sum().backward()
    np.testing.assert_allclose(v.grad, np.full(4, 6.0))
