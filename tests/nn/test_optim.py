"""Optimizer tests: SGD, momentum, Adam, clipping."""

import numpy as np
import pytest

from repro.autodiff import Tape
from repro.nn import Adam, SGD
from repro.nn.module import Parameter


def quad_loss(p: Parameter):
    return ((p - 3.0) ** 2).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            with Tape():
                loss = quad_loss(p)
                opt.zero_grad()
                loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-3)

    def test_momentum_faster_than_plain(self):
        def run(momentum):
            p = Parameter(np.zeros(1))
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(30):
                with Tape():
                    loss = quad_loss(p)
                    opt.zero_grad()
                    loss.backward()
                opt.step()
            return abs(float(p.data[0]) - 3.0)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.full(3, 10.0))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        # zero task gradient: pure decay
        p.grad = np.zeros(3)
        opt.step()
        assert np.all(np.abs(p.data) < 10.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_skips_param_without_grad(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad: no movement, no crash
        np.testing.assert_allclose(p.data, 1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            with Tape():
                loss = quad_loss(p)
                opt.zero_grad()
                loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-2)

    def test_bias_correction_first_step(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        # with bias correction, the first step has magnitude ~lr
        np.testing.assert_allclose(abs(p.data), 0.1, rtol=1e-6)

    def test_zero_grad_clears(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p])
        p.grad = np.ones(2)
        opt.zero_grad()
        assert p.grad is None


class TestClipGradNorm:
    def test_clips_large_gradient(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        p.grad = np.full(4, 10.0)
        pre = opt.clip_grad_norm(1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small_gradient(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        p.grad = np.full(4, 0.1)
        opt.clip_grad_norm(10.0)
        np.testing.assert_allclose(p.grad, 0.1)

    def test_handles_missing_grads(self):
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        opt = SGD([a, b], lr=0.1)
        a.grad = np.ones(2)
        opt.clip_grad_norm(0.5)  # b.grad None must not crash
        assert b.grad is None
