"""Property-based tests (hypothesis) on autodiff algebra."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tape, Tensor, functional as F

arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=50, deadline=None)
@given(arrays)
def test_add_zero_identity(x):
    t = Tensor(x, requires_grad=True)
    out = t + np.zeros_like(x)
    np.testing.assert_array_equal(out.data, x)


@settings(max_examples=50, deadline=None)
@given(arrays)
def test_mul_grad_is_other_operand(x):
    a = Tensor(x, requires_grad=True)
    b = np.full_like(x, 3.0)
    with Tape():
        (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, b)


@settings(max_examples=50, deadline=None)
@given(arrays)
def test_sum_grad_is_ones(x):
    t = Tensor(x, requires_grad=True)
    with Tape():
        t.sum().backward()
    np.testing.assert_array_equal(t.grad, np.ones_like(x))


@settings(max_examples=50, deadline=None)
@given(arrays)
def test_double_negation(x):
    t = Tensor(x)
    np.testing.assert_array_equal((-(-t)).data, x)


@settings(max_examples=50, deadline=None)
@given(arrays)
def test_sigmoid_range(x):
    out = F.sigmoid(Tensor(x)).data
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@settings(max_examples=50, deadline=None)
@given(arrays)
def test_softmax_is_distribution(x):
    out = F.softmax(Tensor(x), axis=-1).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(arrays)
def test_exp_log_roundtrip(x):
    t = Tensor(x)
    np.testing.assert_allclose(F.log(F.exp(t)).data, x, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(arrays)
def test_reshape_roundtrip_grad(x):
    t = Tensor(x, requires_grad=True)
    with Tape():
        t.reshape(-1).reshape(*x.shape).sum().backward()
    np.testing.assert_array_equal(t.grad, np.ones_like(x))


@settings(max_examples=50, deadline=None)
@given(arrays, st.floats(0.1, 5.0))
def test_linearity_of_backward(x, c):
    a = Tensor(x, requires_grad=True)
    with Tape():
        (a * c).sum().backward()
    grad1 = a.grad.copy()
    a.zero_grad()
    with Tape():
        a.sum().backward()
    np.testing.assert_allclose(grad1, c * a.grad, rtol=1e-9)
