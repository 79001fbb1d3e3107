"""Negative-sampled structure loss tests (§III-G estimator)."""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor
from repro.core import MixBernoulliSampler, TrainConfig, VRDAG, VRDAGConfig, VRDAGTrainer


@pytest.fixture
def sampler(rng):
    return MixBernoulliSampler(state_dim=6, num_components=2, rng=rng)


@pytest.fixture
def states(rng):
    return Tensor(rng.normal(size=(10, 6)))


@pytest.fixture
def sparse_adj(rng):
    adj = (rng.random((10, 10)) < 0.15).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


class TestSampledLogLikelihood:
    def test_validates_num_negatives(self, sampler, states, sparse_adj, rng):
        with pytest.raises(ValueError):
            sampler.sampled_log_likelihood(states, sparse_adj, 0, rng)

    def test_unbiased_estimate_near_dense(self, sampler, states, sparse_adj):
        """Averaged over many negative-sample draws, the estimator should
        approach the exact dense log-likelihood."""
        exact = float(sampler.log_likelihood(states, sparse_adj).data)
        estimates = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            estimates.append(
                float(
                    sampler.sampled_log_likelihood(
                        states, sparse_adj, 8, rng
                    ).data
                )
            )
        # logsumexp of an unbiased row-sum estimate is not exactly
        # unbiased, but the gap should be small relative to |exact|
        assert abs(np.mean(estimates) - exact) < 0.25 * abs(exact) + 1.0

    def test_full_coverage_matches_dense(self, sampler, states, sparse_adj):
        """With enough negatives to cover every non-edge (importance
        weights then average duplicates), the estimate concentrates."""
        rng = np.random.default_rng(0)
        est = float(
            sampler.sampled_log_likelihood(states, sparse_adj, 200, rng).data
        )
        exact = float(sampler.log_likelihood(states, sparse_adj).data)
        assert abs(est - exact) < 0.15 * abs(exact) + 0.5

    def test_gradients_flow(self, sampler, states, sparse_adj, rng):
        s = Tensor(states.data.copy(), requires_grad=True)
        with Tape():
            (-sampler.sampled_log_likelihood(s, sparse_adj, 5, rng)).backward()
        assert s.grad is not None
        assert np.all(np.isfinite(s.grad))


class TestEndToEndWithNegativeSampling:
    def test_training_works(self, tiny_graph):
        cfg = VRDAGConfig(
            num_nodes=tiny_graph.num_nodes,
            num_attributes=tiny_graph.num_attributes,
            hidden_dim=8, latent_dim=4, encode_dim=8,
            struct_negative_samples=5, seed=0,
        )
        model = VRDAG(cfg)
        result = VRDAGTrainer(model, TrainConfig(epochs=8)).fit(tiny_graph)
        assert result.loss_history[-1] < result.loss_history[0]
        out = model.generate(2, seed=1)
        assert out.num_timesteps == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VRDAGConfig(num_nodes=5, struct_negative_samples=-1).validate()
