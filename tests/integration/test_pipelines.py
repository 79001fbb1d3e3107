"""Cross-module integration pipelines exercising the public API end to
end: streams → training → release, churn generation, perturbation
sanity, and persistence → continuation."""

import functools

import numpy as np
import pytest

from repro.core import (
    NodeDynamicsWrapper,
    TrainConfig,
    VRDAG,
    VRDAGConfig,
    VRDAGTrainer,
    continue_sequence,
    load_model,
    save_model,
)
from repro.datasets import load_dataset
from repro.datasets.perturb import rewire_edges
from repro.graph import DynamicAttributedGraph
from repro.graph.formats import export_graph_csv, import_graph_csv
from repro.graph.streams import (
    InteractionStream,
    discretize,
    to_stream,
    uniform_windows,
)
from repro.metrics import (
    degree_distribution_mmd,
    privacy_report,
    structure_metric_table,
)


def train_small(graph, epochs=4, seed=0):
    cfg = VRDAGConfig(
        num_nodes=graph.num_nodes,
        num_attributes=graph.num_attributes,
        hidden_dim=8, latent_dim=4, encode_dim=8, seed=seed,
    )
    model = VRDAG(cfg)
    VRDAGTrainer(model, TrainConfig(epochs=epochs)).fit(graph)
    return model


@pytest.fixture(scope="module")
def email_graph():
    return load_dataset("email", scale=0.015, seed=0)


@pytest.fixture(scope="module")
def email_model(email_graph):
    return train_small(email_graph)


class TestStreamToReleasePipeline:
    def test_full_pipeline(self, tmp_path, email_graph, email_model):
        # generate a synthetic twin
        synthetic = email_model.generate(email_graph.num_timesteps, seed=1)
        # leakage audit must come back complete and finite where defined
        audit = privacy_report(email_graph, synthetic)
        assert 0.0 <= audit["edge_overlap"] <= 1.0
        assert audit["attr_nn_distance"] > 0.0
        # release via CSV, re-import, and verify the round trip exactly
        export_graph_csv(synthetic, tmp_path / "e.csv", tmp_path / "a.csv")
        back = import_graph_csv(tmp_path / "e.csv", tmp_path / "a.csv")
        assert np.array_equal(
            back.adjacency_tensor(), synthetic.adjacency_tensor()
        )
        np.testing.assert_allclose(
            back.attribute_tensor(), synthetic.attribute_tensor()
        )
        # fidelity metrics on the re-imported graph are finite
        table = structure_metric_table(email_graph, back)
        assert all(np.isfinite(v) for v in table.values())

    def test_stream_view_round_trip(self, email_model, email_graph):
        synthetic = email_model.generate(4, seed=2)
        stream = to_stream(synthetic, window=1.0)
        assert isinstance(stream, InteractionStream)
        # midpoint timestamps keep the store's (t, src, dst) order
        assert np.array_equal(stream.src, synthetic.store.src)
        assert np.array_equal(stream.dst, synthetic.store.dst)
        assert np.array_equal(stream.time, synthetic.store.t + 0.5)
        # uniform windows over the pinned span [0, T] rebuild the buckets
        pinned = functools.partial(uniform_windows, t0=0.0, t1=4.0)
        rebucketed = discretize(stream, 4, pinned)
        assert rebucketed.store == synthetic.store.with_attributes(None)


class TestChurnPipeline:
    def test_fitted_churn_generation(self, email_graph, email_model):
        wrapper = NodeDynamicsWrapper(
            email_model, deletion_threshold=3
        ).fit(email_graph)
        out, masks = wrapper.generate(
            5, initial_active=email_graph.num_nodes // 2, seed=3
        )
        assert out.num_timesteps == 5
        assert masks.shape == (5, email_graph.num_nodes)
        # active-set evolution stays within the universe
        assert masks.sum(axis=1).max() <= email_graph.num_nodes
        # inactive nodes never carry edges
        for t in range(5):
            assert out[t].adjacency[~masks[t]].sum() == 0


class TestPerturbationSanity:
    def test_metrics_rank_corruption_levels(self, email_graph):
        """The metric suite must rank an uncorrupted copy above a
        heavily rewired one — the precondition for trusting Table I."""
        light = rewire_edges(email_graph, 0.05, np.random.default_rng(0))
        heavy = rewire_edges(email_graph, 0.95, np.random.default_rng(0))
        mmd_light = degree_distribution_mmd(email_graph, light, "in")
        mmd_heavy = degree_distribution_mmd(email_graph, heavy, "in")
        assert mmd_light <= mmd_heavy


class TestPersistContinue:
    def test_save_load_continue(self, tmp_path, email_graph, email_model):
        path = tmp_path / "model.npz"
        save_model(email_model, path)
        loaded = load_model(path)
        # loaded model generates identically (incl. AR(1) rho state)
        a = email_model.generate(3, seed=5)
        b = loaded.generate(3, seed=5)
        assert a == b
        # and supports conditional continuation of the observed prefix
        prefix = DynamicAttributedGraph(email_graph.snapshots[:3])
        future = continue_sequence(loaded, prefix, horizon=2, seed=6)
        assert future.num_timesteps == 2
        assert future.num_nodes == email_graph.num_nodes
