"""CoEvoGNN forecaster and augmentation case-study tests."""

import numpy as np
import pytest

from repro.downstream import (
    CoEvoGNN,
    CoEvoGNNConfig,
    attribute_prediction_rmse,
    evaluate_augmentation,
    link_prediction_f1,
)


class TestTaskMetrics:
    def test_f1_perfect(self):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[2, 3] = 1.0
        assert link_prediction_f1(adj, adj) == pytest.approx(1.0)

    def test_f1_no_overlap_zero(self):
        a = np.zeros((4, 4))
        a[0, 1] = 1.0
        b = np.zeros((4, 4))
        b[1, 0] = 1.0
        assert link_prediction_f1(a, b) == 0.0

    def test_f1_ignores_diagonal(self):
        a = np.zeros((3, 3))
        b = np.eye(3)
        assert link_prediction_f1(a, b) == 0.0

    def test_f1_partial(self):
        true = np.zeros((4, 4))
        true[0, 1] = true[0, 2] = 1.0
        pred = np.zeros((4, 4))
        pred[0, 1] = 1.0  # 1 TP, 0 FP, 1 FN
        # precision 1, recall 0.5 -> F1 = 2/3
        assert link_prediction_f1(true, pred) == pytest.approx(2 / 3)

    def test_rmse(self):
        x = np.zeros((3, 2))
        y = np.full((3, 2), 2.0)
        assert attribute_prediction_rmse(x, y) == pytest.approx(2.0)


class TestCoEvoGNN:
    @pytest.fixture
    def model(self, tiny_graph):
        cfg = CoEvoGNNConfig(
            num_nodes=tiny_graph.num_nodes,
            num_attributes=tiny_graph.num_attributes,
            hidden_dim=8,
            epochs=5,
            seed=0,
        )
        return CoEvoGNN(cfg)

    def test_fit_returns_history(self, model, tiny_graph):
        history = model.fit([tiny_graph])
        assert len(history) == 5
        assert all(np.isfinite(h) for h in history)

    def test_seeded_fits_have_identical_loss_histories(self, tiny_graph):
        cfg = CoEvoGNNConfig(
            num_nodes=tiny_graph.num_nodes,
            num_attributes=tiny_graph.num_attributes,
            hidden_dim=8,
            epochs=5,
            seed=0,
        )
        first = CoEvoGNN(cfg).fit([tiny_graph])
        second = CoEvoGNN(cfg).fit([tiny_graph])
        assert first == second  # bit-identical floats

    def test_each_epoch_records_on_a_fresh_tape(self, model, tiny_graph, monkeypatch):
        from repro.autodiff import tape as tape_mod

        entered = []
        orig_enter = tape_mod.Tape.__enter__

        def spy(self):
            entered.append(self)
            return orig_enter(self)

        monkeypatch.setattr(tape_mod.Tape, "__enter__", spy)
        model.fit([tiny_graph])
        assert len(entered) == 5 and len(set(map(id, entered))) == 5

    def test_fit_multiple_sequences(self, model, tiny_graph):
        history = model.fit([tiny_graph, tiny_graph.copy()])
        assert len(history) == 5

    def test_fit_rejects_too_short(self, model, tiny_graph):
        with pytest.raises(ValueError):
            model.fit([tiny_graph[0:1]])

    def test_predict_snapshot_shapes(self, model, tiny_graph):
        model.fit([tiny_graph])
        adj, attrs = model.predict_snapshot(tiny_graph.snapshots[:-1], edge_budget=10)
        n = tiny_graph.num_nodes
        assert adj.shape == (n, n)
        assert int(adj.sum()) == 10
        assert attrs.shape == (n, tiny_graph.num_attributes)
        assert np.all(np.diag(adj) == 0)

    def test_zero_edge_budget(self, model, tiny_graph):
        model.fit([tiny_graph])
        adj, _ = model.predict_snapshot(tiny_graph.snapshots[:-1], edge_budget=0)
        assert adj.sum() == 0

    def test_training_reduces_loss(self, tiny_graph):
        cfg = CoEvoGNNConfig(
            num_nodes=tiny_graph.num_nodes,
            num_attributes=tiny_graph.num_attributes,
            hidden_dim=12,
            epochs=40,
            seed=0,
        )
        history = CoEvoGNN(cfg).fit([tiny_graph])
        assert np.mean(history[-5:]) < np.mean(history[:5])


class TestEvaluateAugmentation:
    def test_requires_three_steps(self, tiny_graph):
        with pytest.raises(ValueError):
            evaluate_augmentation(tiny_graph[0:2], None, epochs=1)

    def test_result_fields(self, tiny_graph):
        res = evaluate_augmentation(tiny_graph, None, epochs=3, hidden_dim=8)
        assert 0.0 <= res.f1 <= 1.0
        assert res.rmse >= 0.0

    def test_with_synthetic_augmentation(self, tiny_graph):
        res = evaluate_augmentation(
            tiny_graph, tiny_graph.copy(), epochs=3, hidden_dim=8
        )
        assert 0.0 <= res.f1 <= 1.0

    def test_structure_only_rmse_nan(self, structure_only_graph):
        res = evaluate_augmentation(structure_only_graph, None, epochs=2, hidden_dim=8)
        assert np.isnan(res.rmse)
