"""Fused MixBernoulli decode: parity with the reference path and the
no-autodiff guarantee of the generation fast path."""

import numpy as np
import pytest

from repro.autodiff import fused
from repro.autodiff.tensor import Tensor
from repro.core import VRDAG, VRDAGConfig
from repro.core.generator import MixBernoulliSampler, prepare_decode

from tests.conftest import sampled_adjacency


@pytest.fixture
def sampler():
    return MixBernoulliSampler(
        12, num_components=3, rng=np.random.default_rng(3)
    )


@pytest.fixture
def states(rng):
    return Tensor(rng.normal(size=(23, 12)))


@pytest.fixture
def block_rows(monkeypatch):
    """``block_rows(rows, n)`` sets the decode's row-block height to
    ``rows`` at ``n`` nodes through the pair budget it shares with the
    training records."""

    def set_rows(rows, n):
        monkeypatch.setattr(fused, "_PAIR_BUDGET", rows * n)

    return set_rows


class TestFusedDecodeParity:
    def test_sample_matches_reference(self, sampler, states, block_rows):
        block_rows(5, 23)
        blocked = sampled_adjacency(sampler, states, np.random.default_rng(7))
        ref = sampler._reference_sample(states, np.random.default_rng(7))
        np.testing.assert_array_equal(blocked, ref)

    def test_edge_probabilities_match_reference(
        self, sampler, states, block_rows
    ):
        block_rows(5, 23)
        np.testing.assert_allclose(
            sampler.edge_probabilities(states),
            sampler._reference_edge_probabilities(states),
            atol=1e-10,
        )

    def test_blocking_is_invisible(self, sampler, states, block_rows):
        block_rows(23, 23)  # budget N²: one whole-matrix block
        whole = sampled_adjacency(sampler, states, np.random.default_rng(9))
        block_rows(3, 23)
        blocked = sampled_adjacency(sampler, states, np.random.default_rng(9))
        np.testing.assert_array_equal(whole, blocked)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_component_counts(self, rng, k, block_rows):
        sampler = MixBernoulliSampler(
            8, num_components=k, rng=np.random.default_rng(k)
        )
        s = Tensor(rng.normal(size=(11, 8)))
        block_rows(4, 11)
        blocked = sampled_adjacency(sampler, s, np.random.default_rng(1))
        ref = sampler._reference_sample(s, np.random.default_rng(1))
        np.testing.assert_array_equal(blocked, ref)

    def test_decode_reads_shared_pair_budget(
        self, sampler, states, monkeypatch
    ):
        """The decode's block height is the training record's pair
        budget over N, read at call time."""
        assert prepare_decode(sampler, states)[2] == fused._PAIR_BUDGET // 23
        monkeypatch.setattr(fused, "_PAIR_BUDGET", 50)
        assert prepare_decode(sampler, states)[2] == 2
        monkeypatch.setattr(fused, "_PAIR_BUDGET", 10)
        assert prepare_decode(sampler, states)[2] == 1

    def test_single_node(self, sampler):
        s = Tensor(np.zeros((1, 12)))
        adj = sampled_adjacency(sampler, s, np.random.default_rng(0))
        assert adj.shape == (1, 1) and adj[0, 0] == 0.0

    def test_pooled_alpha_fallback_agrees(self, states, block_rows):
        """A non-decomposable α activation falls back to the blocked
        pairwise pass and still matches the reference."""
        from repro.nn import MLP

        sampler = MixBernoulliSampler(
            12, num_components=3, rng=np.random.default_rng(3)
        )
        sampler.f_alpha = MLP(
            [12, 12, 3], activation="tanh", rng=np.random.default_rng(4)
        )
        assert sampler._pooled_alpha_features_np(np.zeros((3, 12))) is None
        block_rows(6, 23)
        np.testing.assert_allclose(
            sampler.edge_probabilities(states),
            sampler._reference_edge_probabilities(states),
            atol=1e-10,
        )


class TestNoGradFastPath:
    def _spy_on_ops(self, monkeypatch):
        """Names of every op the dispatcher runs (taped or not)."""
        from repro.autodiff import tape as tape_mod

        created = []
        orig = tape_mod.get_op

        def spy(name):
            created.append(name)
            return orig(name)

        monkeypatch.setattr(tape_mod, "get_op", spy)
        return created

    def test_sample_creates_no_autodiff_ops(
        self, monkeypatch, sampler, states
    ):
        created = self._spy_on_ops(monkeypatch)
        sampled_adjacency(sampler, states, np.random.default_rng(0))
        assert created == []

    def test_edge_probabilities_create_no_autodiff_ops(
        self, monkeypatch, sampler, states
    ):
        created = self._spy_on_ops(monkeypatch)
        sampler.edge_probabilities(states)
        assert created == []

    def test_generate_records_no_tape(self, monkeypatch):
        """Algorithm 1 rollouts never build an autodiff graph: every op
        of the rollout is a plain forward call, none goes through a
        tape."""
        from repro.autodiff import Tape

        created = self._spy_on_ops(monkeypatch)
        taped = []
        orig_apply = Tape.apply
        monkeypatch.setattr(
            Tape, "apply",
            lambda self, name, *a, **k: taped.append(name)
            or orig_apply(self, name, *a, **k),
        )
        cfg = VRDAGConfig(
            num_nodes=10,
            num_attributes=2,
            hidden_dim=8,
            latent_dim=4,
            encode_dim=8,
            seed=0,
        )
        model = VRDAG(cfg)
        model.generate(num_timesteps=2, seed=1)
        assert created, "expected encoder/recurrence ops to run"
        assert taped == []

    def test_generate_inside_tape_records_nothing(self):
        """Generation respects no_grad even with a training tape open:
        an interleaved rollout must not append a single record to it."""
        from repro.autodiff import Tape

        cfg = VRDAGConfig(
            num_nodes=10,
            num_attributes=2,
            hidden_dim=8,
            latent_dim=4,
            encode_dim=8,
            seed=0,
        )
        model = VRDAG(cfg)
        with Tape() as tape:
            model.generate(num_timesteps=2, seed=1)
        assert len(tape) == 0

    def test_sample_inside_tape_records_nothing(self, sampler, states):
        from repro.autodiff import Tape

        with Tape() as tape:
            sampled_adjacency(sampler, states, np.random.default_rng(0))
            sampler.edge_probabilities(states)
        assert len(tape) == 0
