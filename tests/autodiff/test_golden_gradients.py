"""Tape gradients pinned against a golden fixture from the retired
closure engine, and against central finite differences.

``data/golden_grads.npz`` holds, for every case below, the loss value
(``<case>/loss``) and one gradient per parameter (``<case>/grad<i>``,
in ``module.parameters()`` order).  It was recorded at commit
``c61ebd7`` — the last commit with the per-Tensor closure engine — by
calling each case's ``loss_fn()`` *outside* any ``Tape`` (which then
built the closure graph) and running ``loss.backward()``.  Every case
is fully seeded (module seeds, input seeds and the ``_jitter`` seed are
written below), so the same code rebuilds the same parameters and
inputs here.

Shared primitives evaluate the very same NumPy expressions as the old
closure ops, so most cases agree to machine precision; the fused tape
records (``linear_act``, ``pairwise_mlp2``, ``pooled_mlp2``, …)
reassociate sums, so every case is held to a 1e-9 tolerance instead
of bit-equality.  ``gradcheck`` pins each case against central finite
differences as a second, fixture-independent reference.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor, gradcheck
from repro.core.generator import MixBernoulliSampler
from repro.core.model import VRDAG, VRDAGConfig
from repro.downstream.coevognn import CoEvoGNN, CoEvoGNNConfig
from repro.graph import DynamicAttributedGraph, GraphSnapshot
from repro.nn import GRUCell, Linear, MLP, Module, Time2Vec
from repro.nn.attention import GATLayer
from repro.nn.gin import GINLayer

FIXTURE = Path(__file__).parent / "data" / "golden_grads.npz"

#: loss (rel/abs) and grad (rtol = atol) tolerance: reassociation-level
#: agreement; measured worst cases are ~2e-15 (VRDAG) and 0.0 on the
#: paths that share every expression with the closure ops
TOL = 1e-9


def _jitter(module: Module, seed: int = 17, scale: float = 0.05) -> None:
    """Nudge every parameter off its (often zero) init.

    Zero-initialized biases put the pairwise heads' diagonal
    preactivations *exactly* on the leaky-ReLU kink, where the
    subgradient and a central finite difference legitimately disagree;
    jittering moves the check to a generic point.
    """
    jrng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data += jrng.normal(0.0, scale, size=p.data.shape)


def _toy_graph(n=9, t_len=3, f=2, seed=0):
    rng = np.random.default_rng(seed)
    snaps = []
    adj = (rng.random((n, n)) < 0.25).astype(float)
    np.fill_diagonal(adj, 0.0)
    for _ in range(t_len):
        flip = (rng.random((n, n)) < 0.05).astype(float)
        adj = np.clip(adj + flip, 0, 1)
        np.fill_diagonal(adj, 0.0)
        snaps.append(GraphSnapshot(adj.copy(), rng.normal(size=(n, f))))
    return DynamicAttributedGraph(snaps)


# ----------------------------------------------------------------------
# cases: name -> () -> (module, loss_fn); each builds everything from
# fixed seeds so the fixture's recording and this replay match
# ----------------------------------------------------------------------
def _linear(bias):
    def build():
        rng = np.random.default_rng(42)
        lin = Linear(5, 3, bias=bias, rng=rng)
        x = rng.normal(size=(7, 5))
        return lin, lambda: (lin(Tensor(x)) ** 2).mean()

    return build


def _mlp(act, out_act="identity"):
    def build():
        rng = np.random.default_rng(42)
        mlp = MLP([4, 6, 2], activation=act, out_activation=out_act, rng=rng)
        _jitter(mlp)  # lifts the zero biases off the relu/leaky kinks
        x = rng.normal(size=(5, 4))
        return mlp, lambda: (mlp(Tensor(x)) ** 2).mean()

    return build


def _gru_cell():
    rng = np.random.default_rng(42)
    gru = GRUCell(4, 6, rng=rng)
    x = rng.normal(size=(5, 4))
    h = rng.normal(size=(5, 6))
    return gru, lambda: (gru(Tensor(x), Tensor(h)) ** 2).mean()


def _gru_cell_unrolled():
    """BPTT through several steps — grads accumulate across records."""
    rng = np.random.default_rng(42)
    gru = GRUCell(3, 4, rng=rng)
    xs = [rng.normal(size=(2, 3)) for _ in range(3)]

    def loss_fn():
        h = Tensor(np.zeros((2, 4)))
        for x in xs:
            h = gru(Tensor(x), h)
        return (h ** 2).mean()

    return gru, loss_fn


def _graph_layer(cls):
    def build():
        rng = np.random.default_rng(42)
        layer = cls(4, 5, rng=rng)
        h = rng.normal(size=(6, 4))
        adj = (rng.random((6, 6)) < 0.4).astype(float)
        np.fill_diagonal(adj, 0.0)
        return layer, lambda: (layer(Tensor(h), adj) ** 2).mean()

    return build


def _time2vec(dim, t):
    def build():
        t2v = Time2Vec(dim, rng=np.random.default_rng(42))
        return t2v, lambda: (t2v(t) ** 2).sum()

    return build


def _sampler_case(kind):
    def build():
        rng = np.random.default_rng(42)
        sampler = MixBernoulliSampler(
            6, num_components=2, rng=np.random.default_rng(3)
        )
        _jitter(sampler)
        s = rng.normal(size=(8, 6))
        adj = (rng.random((8, 8)) < 0.3).astype(float)
        np.fill_diagonal(adj, 0.0)
        if kind == "log_likelihood":
            return sampler, lambda: sampler.log_likelihood(Tensor(s), adj)
        if kind == "sampled_log_likelihood":
            # fixed negative draws so the loss replays identically
            return sampler, lambda: sampler.sampled_log_likelihood(
                Tensor(s), adj, 4, np.random.default_rng(13)
            )

        def loss_fn():
            alpha, theta = sampler.distribution(Tensor(s[:7]))
            return (alpha ** 2).sum() + (theta ** 2).sum()

        return sampler, loss_fn

    return build


def _vrdag_sequence_loss():
    cfg = VRDAGConfig(
        num_nodes=9, num_attributes=2, hidden_dim=6, latent_dim=4,
        encode_dim=6, mixture_components=2, seed=11,
    )
    model = VRDAG(cfg)
    graph = model.calibrate(_toy_graph())
    _jitter(model)

    def loss_fn():
        # latent sampling must replay identically on every call
        model._sample_rng = np.random.default_rng(99)
        loss, _ = model.sequence_loss(graph)
        return loss

    return model, loss_fn


def _coevognn_epoch_loss():
    """One CoEvoGNN training epoch's loss: the mean forecast loss over
    every (prefix -> next snapshot) task of one sequence.  (Recorded by
    the same loop inline, before ``_epoch_loss`` factored it out.)"""
    graph = _toy_graph(n=8, t_len=3, seed=4)
    model = CoEvoGNN(
        CoEvoGNNConfig(num_nodes=8, num_attributes=2, hidden_dim=5, seed=7)
    )
    _jitter(model)

    def loss_fn():
        # negative-pair sampling must replay identically on every call
        model._train_rng = np.random.default_rng(8)
        return model._epoch_loss([graph])

    return model, loss_fn


CASES = {
    "linear": _linear(True),
    "linear_no_bias": _linear(False),
    **{
        f"mlp_{act}": _mlp(act)
        for act in (
            "relu", "leaky_relu", "tanh", "sigmoid", "elu", "softplus",
            "identity",
        )
    },
    "mlp_out_tanh": _mlp("relu", "tanh"),
    "gru_cell": _gru_cell,
    "gru_cell_unrolled": _gru_cell_unrolled,
    "gat": _graph_layer(GATLayer),
    "gin": _graph_layer(GINLayer),
    "time2vec": _time2vec(5, 3.0),
    "time2vec_dim1": _time2vec(1, 2.0),
    "mixbern_log_likelihood": _sampler_case("log_likelihood"),
    "mixbern_distribution": _sampler_case("distribution"),
    "mixbern_sampled_log_likelihood": _sampler_case("sampled_log_likelihood"),
    "vrdag_sequence_loss": _vrdag_sequence_loss,
    "coevognn_epoch_loss": _coevognn_epoch_loss,
}


def _tape_grads(module: Module, loss_fn):
    """Loss value + per-parameter grads of ``loss_fn`` on a fresh tape."""
    params = module.parameters()
    for p in params:
        p.grad = None
    with Tape():
        loss = loss_fn()
        loss.backward()
    grads = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for p in params
    ]
    return float(loss.data), grads


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


def test_fixture_covers_every_case(golden):
    recorded = {key.split("/")[0] for key in golden}
    assert recorded == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_tape_matches_golden(golden, name):
    module, loss_fn = CASES[name]()
    loss, grads = _tape_grads(module, loss_fn)
    assert loss == pytest.approx(float(golden[f"{name}/loss"]), rel=TOL, abs=TOL)
    recorded = sorted(k for k in golden if k.startswith(f"{name}/grad"))
    assert len(recorded) == len(grads)
    for i, g in enumerate(grads):
        np.testing.assert_allclose(
            g, golden[f"{name}/grad{i}"], rtol=TOL, atol=TOL,
            err_msg=f"{name} parameter {i}",
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_gradcheck(name):
    module, loss_fn = CASES[name]()
    few = name in ("vrdag_sequence_loss", "coevognn_epoch_loss")
    assert gradcheck(
        loss_fn, module.parameters(),
        max_entries=2 if few else 8, tol=2e-4 if few else 1e-4,
    )
