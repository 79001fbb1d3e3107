"""The MixBernoulli training records: ``pooled_mlp2`` (closed-form α
pooling) and ``pairwise_mixbern_loglik`` (row-blocked θ likelihood).

Pinned three ways: the shared pooled kernel against the explicit
pairwise sum, both records against central finite differences at a
generic point, and both records against the pairwise composition they
replace at zero biases, where every diagonal preactivation sits exactly
on the activation kink (the tie convention decides those gradients).
"""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor, fused, functional as F, gradcheck
from repro.autodiff.tape import active_tape
from repro.core.generator import MixBernoulliSampler
from repro.nn import MLP, Parameter

EPS = 1e-7
PIECEWISE = ["relu", "leaky_relu", "identity"]


def _head(n, k, seed, d=4, h=5, bias_scale=0.3):
    rng = np.random.default_rng(seed)
    return [
        Parameter(rng.normal(size=(n, d))),
        Parameter(rng.normal(size=(d, h)) * 0.7),
        Parameter(rng.normal(size=h) * bias_scale),
        Parameter(rng.normal(size=(h, k)) * 0.7),
        Parameter(rng.normal(size=k) * bias_scale),
    ]


def _adjacency(n, seed):
    adj = (np.random.default_rng(seed).random((n, n)) < 0.4).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


def _record(name, params, **kwargs):
    """Apply a fused head record to ``(s, W1, b1, W2, b2)``."""
    return active_tape().apply(
        name, tuple(params), has_b1=True, has_b2=True, **kwargs
    )


def _pairwise_sum(params, act):
    """The composition ``pooled_mlp2`` replaces."""
    return _record("pairwise_mlp2", params, activation=act).sum(axis=1)


def _pairwise_loglik(params, act, adj):
    """The composition ``pairwise_mixbern_loglik`` replaces."""
    n = adj.shape[0]
    feats = _record("pairwise_mlp2", params, activation=act)
    theta = F.clip(F.sigmoid(feats), EPS, 1.0 - EPS)
    a = adj[:, :, None]
    log_bern = a * F.log(theta) + (1.0 - a) * F.log(1.0 - theta)
    return (log_bern * (1.0 - np.eye(n))[:, :, None]).sum(axis=1)


def _fused_loglik(params, act, adj):
    return _record(
        "pairwise_mixbern_loglik", params, activation=act,
        adjacency=adj, eps=EPS,
    )


def _grads(params, build, weights):
    """Scalar ``Σ weights ⊙ build()`` on a fresh tape → (value, grads)."""
    for p in params:
        p.grad = None
    with Tape():
        out = build()
        (out * weights).sum().backward()
    return out.data.copy(), [p.grad.copy() for p in params]


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.fixture
def small_blocks(monkeypatch):
    """3-row blocks at N=7, so N is not a multiple of the block height."""
    monkeypatch.setattr(fused, "_PAIR_BUDGET", 21)


class TestPooledKernel:
    @pytest.mark.parametrize("act", PIECEWISE)
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_matches_explicit_pairwise_sum(self, act, with_bias):
        rng = np.random.default_rng(3)
        n, h, k = 37, 6, 3
        proj = rng.normal(size=(n, h))
        proj[5] = proj[2]  # exact ties between sources
        b1 = rng.normal(size=h) if with_bias else None
        w2 = rng.normal(size=(h, k))
        b2 = rng.normal(size=k) if with_bias else None
        feats, _ = fused.pooled_mlp2(proj, b1, w2, b2, act)

        pre = proj[:, None, :] - proj[None, :, :]
        if with_bias:
            pre = pre + b1
        hid, _ = fused._act_with_local(act, pre, 0.2)
        ref = hid.sum(axis=1) @ w2
        if with_bias:
            ref = ref + n * b2
        assert _rel(feats, ref) <= 1e-12


class TestGradcheck:
    @pytest.mark.parametrize("act", PIECEWISE)
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [2, 7])
    def test_pooled_mlp2(self, small_blocks, act, k, n):
        params = _head(n, k, seed=10 * n + k)
        weights = np.random.default_rng(1).normal(size=(n, k))

        def loss():
            with Tape():
                return (_record("pooled_mlp2", params, activation=act)
                        * weights).sum()

        assert gradcheck(loss, params, tol=1e-6)

    @pytest.mark.parametrize("act", PIECEWISE)
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [2, 7])
    def test_pairwise_mixbern_loglik(self, small_blocks, act, k, n):
        params = _head(n, k, seed=10 * n + k)
        adj = _adjacency(n, seed=n)
        weights = np.random.default_rng(2).normal(size=(n, k))

        def loss():
            with Tape():
                return (_fused_loglik(params, act, adj) * weights).sum()

        assert gradcheck(loss, params, tol=1e-6)


class TestZeroBiasKink:
    """Zero biases put every x_ii = v_i - P_i exactly on the kink; the
    records count those ties as x <= 0, like the pairwise records."""

    @pytest.mark.parametrize("act", PIECEWISE)
    def test_pooled_mlp2_matches_pairwise_sum(self, act):
        n, k = 9, 3
        params = _head(n, k, seed=4, bias_scale=0.0)
        weights = np.random.default_rng(5).normal(size=(n, k))
        out, grads = _grads(
            params, lambda: _record("pooled_mlp2", params, activation=act),
            weights,
        )
        ref, ref_grads = _grads(
            params, lambda: _pairwise_sum(params, act), weights
        )
        assert _rel(out, ref) <= 1e-12
        for g, r in zip(grads, ref_grads):
            assert _rel(g, r) <= 1e-12

    @pytest.mark.parametrize("act", PIECEWISE + ["tanh"])
    def test_pairwise_mixbern_loglik_matches_composition(
        self, small_blocks, act
    ):
        n, k = 7, 3
        params = _head(n, k, seed=6, bias_scale=0.0)
        adj = _adjacency(n, seed=8)
        weights = np.random.default_rng(7).normal(size=(n, k))
        out, grads = _grads(
            params, lambda: _fused_loglik(params, act, adj), weights
        )
        ref, ref_grads = _grads(
            params, lambda: _pairwise_loglik(params, act, adj), weights
        )
        assert _rel(out, ref) <= 1e-12
        for g, r in zip(grads, ref_grads):
            assert _rel(g, r) <= 1e-12


def _explicit_loglik(sampler, s, adj):
    """Eq. 11 log-likelihood from the all-pairs (α, θ) composition of
    the reference decode, reduced in plain NumPy."""
    alpha, theta = sampler._reference_distribution(Tensor(s))
    theta = np.clip(theta.data, 1e-7, 1.0 - 1e-7)
    a = adj[:, :, None]
    log_bern = a * np.log(theta) + (1.0 - a) * np.log(1.0 - theta)
    row = (log_bern * (1.0 - np.eye(len(s)))[:, :, None]).sum(axis=1)
    z = np.log(alpha.data + 1e-12) + row
    m = z.max(axis=1, keepdims=True)
    return float((np.log(np.exp(z - m).sum(axis=1)) + m[:, 0]).mean())


class TestSamplerRouting:
    def _ops(self, sampler, s, adj):
        with Tape() as tape:
            loss = sampler.log_likelihood(Tensor(s), adj)
            loss.backward()
        return {rec.spec.name for rec in tape.records}, float(loss.data)

    def _setup(self, seed=3):
        rng = np.random.default_rng(seed)
        sampler = MixBernoulliSampler(6, num_components=2, rng=rng)
        return sampler, rng.normal(size=(8, 6)), _adjacency(8, seed)

    def test_default_heads_use_both_records(self):
        sampler, s, adj = self._setup()
        ops, _ = self._ops(sampler, s, adj)
        assert {"pooled_mlp2", "pairwise_mixbern_loglik"} <= ops
        assert "pairwise_mlp2" not in ops

    def test_tanh_alpha_head_falls_back(self):
        sampler, s, adj = self._setup()
        sampler.f_alpha = MLP(
            [6, 6, 2], activation="tanh", rng=np.random.default_rng(4)
        )
        ops, value = self._ops(sampler, s, adj)
        assert "pooled_mlp2" not in ops
        assert {"pairwise_mlp2", "pairwise_mixbern_loglik"} <= ops
        assert value == pytest.approx(_explicit_loglik(sampler, s, adj), rel=1e-12)

    def test_three_layer_theta_head_falls_back(self):
        sampler, s, adj = self._setup()
        sampler.f_theta = MLP(
            [6, 6, 6, 2], activation="leaky_relu",
            rng=np.random.default_rng(5),
        )
        ops, value = self._ops(sampler, s, adj)
        assert "pairwise_mixbern_loglik" not in ops
        assert "pooled_mlp2" in ops
        assert value == pytest.approx(_explicit_loglik(sampler, s, adj), rel=1e-12)
