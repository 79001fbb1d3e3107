"""End-to-end VRDAG model, trainer and recurrence tests."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import (
    RecurrenceUpdater,
    TrainConfig,
    VRDAG,
    VRDAGConfig,
    VRDAGTrainer,
)
from repro.graph import DynamicAttributedGraph


@pytest.fixture
def config(tiny_graph):
    return VRDAGConfig(
        num_nodes=tiny_graph.num_nodes,
        num_attributes=tiny_graph.num_attributes,
        hidden_dim=8,
        latent_dim=4,
        encode_dim=8,
        time_dim=4,
        seed=0,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_nodes": 1},
            {"num_attributes": -1},
            {"hidden_dim": 0},
            {"gnn_layers": 0},
            {"mixture_components": 0},
            {"sce_alpha": 0.5},
            {"attr_loss": "huber"},
        ],
    )
    def test_invalid(self, overrides):
        base = dict(num_nodes=10, num_attributes=2)
        base.update(overrides)
        with pytest.raises(ValueError):
            VRDAGConfig(**base).validate()


class TestRecurrenceUpdater:
    def test_initial_state_zero(self, rng):
        rec = RecurrenceUpdater(4, 3, 2, 6, rng=rng)
        h0 = rec.initial_state(5)
        assert h0.shape == (5, 6)
        np.testing.assert_allclose(h0.data, 0.0)

    def test_update_shape(self, rng):
        rec = RecurrenceUpdater(4, 3, 2, 6, rng=rng)
        h = rec(
            Tensor(rng.normal(size=(5, 4))),
            Tensor(rng.normal(size=(5, 3))),
            2.0,
            rec.initial_state(5),
        )
        assert h.shape == (5, 6)

    def test_time_affects_update(self, rng):
        rec = RecurrenceUpdater(4, 3, 2, 6, rng=rng)
        enc = Tensor(rng.normal(size=(5, 4)))
        z = Tensor(rng.normal(size=(5, 3)))
        h0 = rec.initial_state(5)
        h1 = rec(enc, z, 1.0, h0)
        h2 = rec(enc, z, 9.0, h0)
        assert not np.allclose(h1.data, h2.data)


class TestVRDAGModel:
    def test_sequence_loss_finite(self, config, tiny_graph):
        model = VRDAG(config)
        loss, logs = model.sequence_loss(tiny_graph)
        assert np.isfinite(float(loss.data))
        assert set(logs) == {"kl", "struct", "attr"}

    def test_node_count_mismatch(self, config, tiny_graph):
        bad = VRDAGConfig(num_nodes=99, num_attributes=2)
        model = VRDAG(bad)
        with pytest.raises(ValueError, match="nodes"):
            model.sequence_loss(tiny_graph)

    def test_attr_count_mismatch(self, config, tiny_graph):
        bad = VRDAGConfig(num_nodes=tiny_graph.num_nodes, num_attributes=7)
        model = VRDAG(bad)
        with pytest.raises(ValueError, match="attributes"):
            model.sequence_loss(tiny_graph)

    def test_generate_shape_and_validity(self, config):
        model = VRDAG(config)
        out = model.generate(num_timesteps=3)
        assert isinstance(out, DynamicAttributedGraph)
        assert out.num_timesteps == 3
        assert out.num_nodes == config.num_nodes
        assert out.num_attributes == config.num_attributes
        for snap in out:
            assert set(np.unique(snap.adjacency)) <= {0.0, 1.0}
            assert np.all(np.diag(snap.adjacency) == 0)
            assert np.all(np.isfinite(snap.attributes))

    def test_generate_invalid_steps(self, config):
        with pytest.raises(ValueError):
            VRDAG(config).generate(0)

    def test_generate_deterministic_under_seed(self, config):
        model = VRDAG(config)
        g1 = model.generate(3, seed=5)
        g2 = model.generate(3, seed=5)
        assert g1 == g2
        assert g1 != model.generate(3, seed=6)

    def test_structure_only_model(self, structure_only_graph):
        cfg = VRDAGConfig(
            num_nodes=structure_only_graph.num_nodes,
            num_attributes=0,
            hidden_dim=8, latent_dim=4, encode_dim=8,
        )
        model = VRDAG(cfg)
        assert model.attribute_decoder is None
        loss, logs = model.sequence_loss(structure_only_graph)
        assert np.isfinite(float(loss.data))
        out = model.generate(2)
        assert out.num_attributes == 0

    def test_calibrate_normalizes(self, config, tiny_graph):
        model = VRDAG(config)
        normalized = model.calibrate(tiny_graph)
        x = normalized.attribute_tensor().reshape(-1, 2)
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(x.std(axis=0), 1.0, atol=1e-6)

    def test_normalize_without_attributes_returns_graph(
        self, structure_only_graph
    ):
        cfg = VRDAGConfig(
            num_nodes=structure_only_graph.num_nodes,
            num_attributes=0,
            hidden_dim=8, latent_dim=4, encode_dim=8,
        )
        model = VRDAG(cfg)
        assert model.normalize(structure_only_graph) is structure_only_graph

    def test_normalize_applies_fitted_stats(self, config, tiny_graph):
        model = VRDAG(config)
        model.calibrate(tiny_graph)
        before = tiny_graph.attribute_tensor().copy()
        normalized = model.normalize(tiny_graph.truncated(3))
        assert normalized.num_timesteps == 3
        for snap, orig in zip(normalized, tiny_graph):
            np.testing.assert_array_equal(snap.adjacency, orig.adjacency)
            np.testing.assert_allclose(
                model._denormalize_attrs(snap.attributes), orig.attributes,
                atol=1e-12,
            )
        # a copy: the input graph's attributes are left as they were
        np.testing.assert_array_equal(tiny_graph.attribute_tensor(), before)

    def test_calibrate_sets_density_bias(self, config, tiny_graph):
        model = VRDAG(config)
        model.calibrate(tiny_graph)
        n = tiny_graph.num_nodes
        density = tiny_graph.num_temporal_edges / (
            tiny_graph.num_timesteps * n * (n - 1)
        )
        probs = model.structure_sampler.edge_probabilities(
            Tensor(np.zeros((n, config.latent_dim + config.hidden_dim)))
        )
        mean_p = probs[~np.eye(n, dtype=bool)].mean()
        assert abs(mean_p - density) < 0.15

    def test_expected_adjacency(self, config):
        model = VRDAG(config)
        probs = model.expected_adjacency(2)
        assert probs.shape == (2, config.num_nodes, config.num_nodes)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_set_attribute_noise_validation(self, config):
        model = VRDAG(config)
        with pytest.raises(ValueError):
            model.set_attribute_noise(np.ones(5))
        with pytest.raises(ValueError):
            model.set_attribute_noise(np.ones((4, 3)))
        model.set_attribute_noise(np.ones(2))          # (F,) stds ok
        model.set_attribute_noise(np.eye(2))           # (F, F) cov ok
        model.set_attribute_noise(np.stack([np.eye(2)] * 4))  # (T, F, F) ok

    def test_correlated_noise_preserves_correlation(self, config):
        """Cholesky sampling must realize the requested covariance."""
        model = VRDAG(config)
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        model.set_attribute_noise(cov)
        rng = np.random.default_rng(0)
        white = rng.standard_normal((20000, 2))
        samples = white @ model._attr_noise_chol[0].T
        emp = np.corrcoef(samples, rowvar=False)
        assert emp[0, 1] == pytest.approx(0.9, abs=0.02)

    def test_set_output_calibration_validation(self, config):
        model = VRDAG(config)
        with pytest.raises(ValueError):
            model.set_output_calibration(
                np.ones((3, 9)), np.stack([np.eye(2)] * 3)
            )
        with pytest.raises(ValueError):
            model.set_output_calibration(np.ones((3, 2)), np.ones((3, 2)))

    def test_safe_cholesky_projects_indefinite(self):
        from repro.core.model import _safe_cholesky

        indefinite = np.array([[1.0, 0.0], [0.0, -4.0]])
        chol = _safe_cholesky(indefinite)
        realized = chol @ chol.T
        assert realized[1, 1] == pytest.approx(0.0, abs=1e-9)
        assert realized[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_model_parameter_count_scales_with_dims(self, tiny_graph):
        small = VRDAG(VRDAGConfig(num_nodes=16, num_attributes=2, hidden_dim=8,
                                  latent_dim=4, encode_dim=8))
        big = VRDAG(VRDAGConfig(num_nodes=16, num_attributes=2, hidden_dim=32,
                                latent_dim=16, encode_dim=32))
        assert big.num_parameters() > small.num_parameters()


class TestVRDAGTrainer:
    def test_loss_decreases(self, config, tiny_graph):
        model = VRDAG(config)
        result = VRDAGTrainer(model, TrainConfig(epochs=12)).fit(tiny_graph)
        assert result.epochs_run == 12
        assert result.loss_history[-1] < result.loss_history[0]

    def test_history_lengths(self, config, tiny_graph):
        model = VRDAG(config)
        result = VRDAGTrainer(model, TrainConfig(epochs=3)).fit(tiny_graph)
        assert len(result.loss_history) == 3
        assert len(result.component_history) == 3
        assert result.train_seconds > 0
        assert np.isfinite(result.final_loss)

    def test_time_budget_stops_early(self, config, tiny_graph):
        model = VRDAG(config)
        result = VRDAGTrainer(
            model, TrainConfig(epochs=10000, time_budget=0.5)
        ).fit(tiny_graph)
        assert result.epochs_run < 10000

    def test_trainer_sets_noise_and_calibration(self, config, tiny_graph):
        model = VRDAG(config)
        VRDAGTrainer(model, TrainConfig(epochs=2)).fit(tiny_graph)
        assert model._attr_noise_std.shape == (tiny_graph.num_timesteps, 2)
        assert model._attr_target_mean is not None

    def test_patience_stops_on_plateau(self, config, tiny_graph):
        model = VRDAG(config)
        # lr=0 never improves the loss, so patience kicks in immediately
        result = VRDAGTrainer(
            model,
            TrainConfig(epochs=50, learning_rate=0.0, patience=2),
        ).fit(tiny_graph)
        assert result.epochs_run <= 4

    def test_patience_ignores_improving_runs(self, config, tiny_graph):
        model = VRDAG(config)
        result = VRDAGTrainer(
            model, TrainConfig(epochs=6, patience=100)
        ).fit(tiny_graph)
        assert result.epochs_run == 6

    def test_weight_decay_shrinks_weights(self, config, tiny_graph):
        model = VRDAG(config)
        trainer = VRDAGTrainer(
            model, TrainConfig(epochs=3, weight_decay=0.5)
        )
        norm_before = sum(
            float((p.data**2).sum()) for p in model.parameters()
        )
        trainer.fit(tiny_graph)
        norm_after = sum(
            float((p.data**2).sum()) for p in model.parameters()
        )
        assert norm_after < norm_before

    def test_verbose_prints_epoch_lines(self, config, tiny_graph, capsys):
        model = VRDAG(config)
        VRDAGTrainer(model, TrainConfig(epochs=2, verbose=True)).fit(tiny_graph)
        out = capsys.readouterr().out
        assert "epoch   0" in out and "loss=" in out

    def test_empty_result_final_loss_nan(self):
        from repro.core.trainer import TrainResult

        assert np.isnan(TrainResult().final_loss)

    def test_training_improves_data_likelihood(self, config, tiny_graph):
        """Training must raise the model's likelihood of the observed
        sequence (reconstruction terms of the ELBO, Eq. 14)."""
        untrained = VRDAG(config)
        norm = untrained.calibrate(tiny_graph)
        _, before = untrained.sequence_loss(norm)

        trained = VRDAG(config)
        VRDAGTrainer(trained, TrainConfig(epochs=25)).fit(tiny_graph)
        norm2 = trained.calibrate(tiny_graph)
        _, after = trained.sequence_loss(norm2)
        assert after["struct"] < before["struct"]
        assert after["attr"] < before["attr"]
