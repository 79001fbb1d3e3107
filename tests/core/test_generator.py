"""MixBernoulli sampler (Eq. 11) and attribute decoder (Eq. 12) tests."""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor
from repro.core import AttributeDecoder, MixBernoulliSampler

from tests.conftest import sampled_adjacency


@pytest.fixture
def sampler(rng):
    return MixBernoulliSampler(state_dim=6, num_components=3, rng=rng)


@pytest.fixture
def states(rng):
    return Tensor(rng.normal(size=(8, 6)))


class TestMixBernoulliSampler:
    def test_distribution_shapes(self, sampler, states):
        alpha, theta = sampler.distribution(states)
        assert alpha.shape == (8, 3)
        assert theta.shape == (8, 8, 3)
        np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((theta.data >= 0) & (theta.data <= 1))

    def test_sample_binary_no_self_loops(self, sampler, states, rng):
        adj = sampled_adjacency(sampler, states, rng)
        assert adj.shape == (8, 8)
        assert set(np.unique(adj)) <= {0.0, 1.0}
        assert np.all(np.diag(adj) == 0)

    def test_sample_deterministic_under_rng(self, sampler, states):
        a1 = sampled_adjacency(sampler, states, np.random.default_rng(3))
        a2 = sampled_adjacency(sampler, states, np.random.default_rng(3))
        np.testing.assert_array_equal(a1, a2)

    def test_log_likelihood_higher_for_likely_graph(self, sampler, states, rng):
        probs = sampler.edge_probabilities(states)
        likely = (probs > 0.5).astype(float)
        np.fill_diagonal(likely, 0.0)
        unlikely = 1.0 - likely
        np.fill_diagonal(unlikely, 0.0)
        ll_likely = float(sampler.log_likelihood(states, likely).data)
        ll_unlikely = float(sampler.log_likelihood(states, unlikely).data)
        assert ll_likely > ll_unlikely

    def test_edge_probabilities_are_mixture_marginals(self, sampler, states):
        alpha, theta = sampler.distribution(states)
        manual = (theta.data * alpha.data[:, None, :]).sum(axis=2)
        np.fill_diagonal(manual, 0.0)
        np.testing.assert_allclose(
            sampler.edge_probabilities(states), manual
        )

    def test_calibrate_bias_sets_initial_density(self, rng):
        s = MixBernoulliSampler(state_dim=4, num_components=2, rng=rng)
        s.calibrate_bias(0.05)
        states = Tensor(np.zeros((10, 4)))
        probs = s.edge_probabilities(states)
        off_diag = probs[~np.eye(10, dtype=bool)]
        # at zero states the MLP is bias-dominated: density near 0.05
        assert abs(off_diag.mean() - 0.05) < 0.05

    def test_k1_reduces_to_independent_bernoulli(self, rng):
        """With K=1 the mixture log-lik equals the plain BCE (negated)."""
        from repro.core.losses import bce_structure_loss

        s = MixBernoulliSampler(state_dim=4, num_components=1, rng=rng)
        states = Tensor(rng.normal(size=(6, 4)))
        adj = (rng.random((6, 6)) < 0.3).astype(float)
        np.fill_diagonal(adj, 0.0)
        _, theta = s.distribution(states)
        probs = Tensor(theta.data[:, :, 0])
        ll = float(s.log_likelihood(states, adj).data)
        bce = float(bce_structure_loss(probs, adj).data)
        assert ll == pytest.approx(-bce, rel=1e-6)

    def test_gradients_flow(self, sampler, states, rng):
        adj = (rng.random((8, 8)) < 0.2).astype(float)
        np.fill_diagonal(adj, 0.0)
        s = Tensor(states.data.copy(), requires_grad=True)
        with Tape():
            (-sampler.log_likelihood(s, adj)).backward()
        assert s.grad is not None
        for _, p in sampler.named_parameters():
            assert p.grad is not None


class TestAttributeDecoder:
    def test_shapes(self, rng, states):
        dec = AttributeDecoder(state_dim=6, num_attributes=3, rng=rng)
        adj = (rng.random((8, 8)) < 0.3).astype(float)
        out = dec(states, adj)
        assert out.shape == (8, 3)

    def test_conditions_on_structure(self, rng, states):
        """Changing the adjacency must change decoded attributes (Eq. 10)."""
        dec = AttributeDecoder(state_dim=6, num_attributes=2, rng=rng)
        adj1 = np.zeros((8, 8))
        adj2 = np.zeros((8, 8))
        adj2[0, 1:] = 1.0
        out1 = dec(states, adj1).data
        out2 = dec(states, adj2).data
        assert not np.allclose(out1[0], out2[0])

    def test_sigmoid_activation(self, rng, states):
        dec = AttributeDecoder(6, 2, activation="sigmoid", rng=rng)
        out = dec(states, np.zeros((8, 8))).data
        assert np.all((out >= 0) & (out <= 1))

    def test_empty_adjacency_finite(self, rng, states):
        dec = AttributeDecoder(6, 2, rng=rng)
        out = dec(states, np.zeros((8, 8)))
        assert np.all(np.isfinite(out.data))
