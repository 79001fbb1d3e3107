"""Latent sampler (Eq. 3–4, 8–9) and loss-term tests (Eq. 15–18)."""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor
from repro.core import PriorNetwork, PosteriorNetwork, losses
from repro.core.latent import GaussianParams


@pytest.fixture
def gaussians(rng):
    q = GaussianParams(
        mu=Tensor(rng.normal(size=(5, 3))),
        sigma=Tensor(np.abs(rng.normal(size=(5, 3))) + 0.5),
    )
    p = GaussianParams(
        mu=Tensor(rng.normal(size=(5, 3))),
        sigma=Tensor(np.abs(rng.normal(size=(5, 3))) + 0.5),
    )
    return q, p


class TestNetworks:
    def test_prior_shapes(self, rng):
        net = PriorNetwork(hidden_dim=8, latent_dim=4, rng=rng)
        params = net(Tensor(rng.normal(size=(6, 8))))
        assert params.mu.shape == (6, 4)
        assert params.sigma.shape == (6, 4)
        assert np.all(params.sigma.data > 0)

    def test_posterior_shapes(self, rng):
        net = PosteriorNetwork(encode_dim=5, hidden_dim=8, latent_dim=4, rng=rng)
        params = net(Tensor(rng.normal(size=(6, 5))), Tensor(rng.normal(size=(6, 8))))
        assert params.mu.shape == (6, 4)

    def test_sigma_clamped(self, rng):
        net = PriorNetwork(hidden_dim=4, latent_dim=2, rng=rng)
        params = net(Tensor(rng.normal(size=(3, 4)) * 1e6))
        assert np.all(np.isfinite(params.sigma.data))

    def test_reparameterized_sample(self, rng, gaussians):
        q, _ = gaussians
        z1 = q.sample(np.random.default_rng(0))
        z2 = q.sample(np.random.default_rng(0))
        np.testing.assert_allclose(z1.data, z2.data)  # same rng -> same sample
        z3 = q.sample(np.random.default_rng(1))
        assert not np.allclose(z1.data, z3.data)

    def test_sample_statistics(self, rng):
        mu = np.full((1, 2), 3.0)
        sigma = np.full((1, 2), 0.5)
        g = GaussianParams(mu=Tensor(mu), sigma=Tensor(sigma))
        samples = np.stack(
            [g.sample(np.random.default_rng(i)).data for i in range(2000)]
        )
        np.testing.assert_allclose(samples.mean(axis=0), 3.0, atol=0.05)
        np.testing.assert_allclose(samples.std(axis=0), 0.5, atol=0.05)


class TestGaussianKL:
    def test_identical_zero(self, gaussians):
        q, _ = gaussians
        assert float(losses.gaussian_kl(q, q).data) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative(self, gaussians):
        q, p = gaussians
        assert float(losses.gaussian_kl(q, p).data) >= 0.0

    def test_closed_form_against_monte_carlo(self):
        q = GaussianParams(mu=Tensor(np.array([[1.0]])), sigma=Tensor(np.array([[0.7]])))
        p = GaussianParams(mu=Tensor(np.array([[0.0]])), sigma=Tensor(np.array([[1.0]])))
        analytic = float(losses.gaussian_kl(q, p).data)
        rng = np.random.default_rng(0)
        z = 1.0 + 0.7 * rng.standard_normal(200000)
        log_q = -0.5 * ((z - 1.0) / 0.7) ** 2 - np.log(0.7) - 0.5 * np.log(2 * np.pi)
        log_p = -0.5 * z**2 - 0.5 * np.log(2 * np.pi)
        mc = float((log_q - log_p).mean())
        assert analytic == pytest.approx(mc, abs=0.01)

    def test_grad_flows(self, rng):
        mu = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        q = GaussianParams(mu=mu, sigma=Tensor(np.ones((3, 2))))
        p = GaussianParams(mu=Tensor(np.zeros((3, 2))), sigma=Tensor(np.ones((3, 2))))
        with Tape():
            losses.gaussian_kl(q, p).backward()
        assert mu.grad is not None


class TestStructureLosses:
    def test_bce_perfect_prediction_near_zero(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = 1.0
        probs = Tensor(np.where(adj > 0, 1.0 - 1e-9, 1e-9))
        loss = float(losses.bce_structure_loss(probs, adj).data)
        assert loss < 1e-4

    def test_bce_wrong_prediction_large(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = 1.0
        probs = Tensor(np.where(adj > 0, 1e-9, 1.0 - 1e-9))
        assert float(losses.bce_structure_loss(probs, adj).data) > 5.0

    def test_bce_ignores_diagonal(self):
        adj = np.zeros((3, 3))
        # probability 1 on the diagonal should not be penalized
        probs_data = np.full((3, 3), 1e-9)
        np.fill_diagonal(probs_data, 0.999)
        loss = float(losses.bce_structure_loss(Tensor(probs_data), adj).data)
        assert loss < 1e-4


class TestAttributeLosses:
    def test_sce_perfect_zero(self, rng):
        x = rng.normal(size=(4, 3))
        loss = losses.sce_attribute_loss(x, Tensor(x * 2.0))  # same direction
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)

    def test_sce_opposite_max(self, rng):
        x = rng.normal(size=(4, 3))
        loss = losses.sce_attribute_loss(x, Tensor(-x), alpha=1.0)
        assert float(loss.data) == pytest.approx(2.0, abs=1e-6)

    def test_sce_alpha_downweights_easy(self, rng):
        x = rng.normal(size=(6, 3))
        pred = x + 0.1 * rng.normal(size=(6, 3))  # easy samples
        l1 = float(losses.sce_attribute_loss(x, Tensor(pred), alpha=1.0).data)
        l3 = float(losses.sce_attribute_loss(x, Tensor(pred), alpha=3.0).data)
        assert l3 < l1

    def test_sce_alpha_validation(self, rng):
        with pytest.raises(ValueError):
            losses.sce_attribute_loss(np.ones((2, 2)), Tensor(np.ones((2, 2))), alpha=0.5)

    def test_sce_scale_invariance(self, rng):
        """SCE ignores norms — the documented reason for the MSE anchor."""
        x = rng.normal(size=(4, 3))
        l1 = float(losses.sce_attribute_loss(x, Tensor(x * 0.001)).data)
        assert l1 == pytest.approx(0.0, abs=1e-6)

    def test_mse(self, rng):
        x = rng.normal(size=(4, 3))
        assert float(losses.mse_attribute_loss(x, Tensor(x)).data) == pytest.approx(0.0)
        assert float(
            losses.mse_attribute_loss(x, Tensor(x + 2.0)).data
        ) == pytest.approx(4.0)

    def test_sce_grad_flows(self, rng):
        x = rng.normal(size=(4, 3))
        pred = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with Tape():
            losses.sce_attribute_loss(x, pred).backward()
        assert pred.grad is not None
        assert np.all(np.isfinite(pred.grad))
