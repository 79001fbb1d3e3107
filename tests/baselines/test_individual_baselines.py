"""Behavioural tests specific to each baseline."""

import numpy as np
import pytest

from repro.baselines import (
    Dymond,
    GenCAT,
    GRAN,
    NormalAttributeGenerator,
    TagGen,
    TGGAN,
    TIGGER,
)
from repro.baselines.dymond import DymondCapacityError
from repro.baselines.gencat import kmeans
from repro.datasets import CoEvolutionConfig, generate_co_evolving_graph


class TestNormal:
    def test_matches_per_step_moments(self, tiny_graph):
        gen = NormalAttributeGenerator(seed=0).fit(tiny_graph)
        out = gen.generate(tiny_graph.num_timesteps, seed=1)
        x0 = tiny_graph.attribute_tensor()
        x1 = out.attribute_tensor()
        # means should roughly track per timestep
        gap = np.abs(x0.mean(axis=1) - x1.mean(axis=1)).mean()
        spread = x0.std()
        assert gap < spread

    def test_density_matched(self, tiny_graph):
        gen = NormalAttributeGenerator(seed=0).fit(tiny_graph)
        out = gen.generate(tiny_graph.num_timesteps, seed=1)
        assert (
            abs(out.num_temporal_edges - tiny_graph.num_temporal_edges)
            < 0.5 * tiny_graph.num_temporal_edges
        )

    def test_horizon_clamps_beyond_fit(self, tiny_graph):
        gen = NormalAttributeGenerator(seed=0).fit(tiny_graph)
        out = gen.generate(tiny_graph.num_timesteps + 5, seed=1)
        assert out.num_timesteps == tiny_graph.num_timesteps + 5


class TestGenCAT:
    def test_invalid_classes(self):
        with pytest.raises(ValueError):
            GenCAT(num_classes=0)

    def test_kmeans_labels_partition(self, rng):
        x = np.concatenate([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 10])
        labels = kmeans(x, 2, rng)
        assert set(labels) == {0, 1}
        # the two blobs separate
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1

    def test_kmeans_k_larger_than_n(self, rng):
        labels = kmeans(rng.normal(size=(3, 2)), 10, rng)
        assert len(labels) == 3

    def test_static_snapshots_are_iid(self, tiny_graph):
        """GenCAT is static: per-step statistics do not trend."""
        gen = GenCAT(seed=0).fit(tiny_graph)
        out = gen.generate(6, seed=1)
        means = out.attribute_tensor().mean(axis=(1, 2))
        # no systematic drift: first and last step distributions equal in
        # expectation -> difference is small relative to original trend
        orig = tiny_graph.attribute_tensor().mean(axis=(1, 2))
        gen_trend = abs(means[-1] - means[0])
        orig_trend = abs(orig[-1] - orig[0]) + 1e-9
        assert gen_trend < orig_trend + 0.5

    def test_preserves_rough_density(self, tiny_graph):
        gen = GenCAT(seed=0).fit(tiny_graph)
        out = gen.generate(tiny_graph.num_timesteps, seed=1)
        ratio = out.num_temporal_edges / max(tiny_graph.num_temporal_edges, 1)
        assert 0.3 < ratio < 2.0


class TestGRAN:
    def test_density_adaptation(self, tiny_graph):
        gen = GRAN(epochs=10, seed=0).fit(tiny_graph)
        out = gen.generate(tiny_graph.num_timesteps, seed=1)
        per_step_target = tiny_graph.num_temporal_edges / tiny_graph.num_timesteps
        for snap in out:
            assert snap.num_edges < 5 * per_step_target + 20


class TestWalkBased:
    @pytest.fixture
    def walk_graph(self):
        cfg = CoEvolutionConfig(
            num_nodes=20, num_timesteps=4, num_attributes=1,
            edges_per_step=50, num_communities=2, persistence=0.5,
        )
        return generate_co_evolving_graph(cfg, seed=3)

    def test_taggen_matches_edge_budget(self, walk_graph):
        gen = TagGen(walks_per_edge=2.0, seed=0).fit(walk_graph)
        out = gen.generate(walk_graph.num_timesteps, seed=1)
        for t, snap in enumerate(out):
            assert snap.num_edges <= walk_graph[t].num_edges

    def test_taggen_discriminator_scores_real_higher(self, walk_graph):
        gen = TagGen(walks_per_edge=2.0, seed=0).fit(walk_graph)
        real_scores = [gen._walk_score(w) for w in gen._real_walks[:50]]
        rng = np.random.default_rng(5)
        fake_walks = [
            [(int(rng.integers(20)), int(rng.integers(4))) for _ in range(5)]
            for _ in range(50)
        ]
        fake_scores = [gen._walk_score(w) for w in fake_walks]
        assert np.mean(real_scores) > np.mean(fake_scores)

    def test_tggan_adversarial_rounds_run(self, walk_graph):
        gen = TGGAN(adversarial_rounds=2, disc_epochs=3, seed=0)
        gen.fit(walk_graph)
        assert gen._discriminator is not None

    def test_tigger_rnn_trained(self, walk_graph):
        gen = TIGGER(epochs=2, seed=0).fit(walk_graph)
        assert gen._rnn is not None
        out = gen.generate(3, seed=1)
        assert out.num_timesteps == 3

    def test_tigger_raises_on_empty_graph(self):
        from repro.graph import DynamicAttributedGraph, GraphSnapshot

        empty = DynamicAttributedGraph(
            [GraphSnapshot(np.zeros((5, 5)))] * 2
        )
        with pytest.raises(ValueError, match="walks"):
            TIGGER(epochs=1, seed=0).fit(empty)


class TestDymond:
    def test_capacity_guard(self):
        cfg = CoEvolutionConfig(num_nodes=30, num_timesteps=2, edges_per_step=20)
        g = generate_co_evolving_graph(cfg, seed=0)
        with pytest.raises(DymondCapacityError):
            Dymond(max_nodes=10, seed=0).fit(g)

    def test_motif_rates_fitted(self, tiny_graph):
        gen = Dymond(seed=0).fit(tiny_graph)
        assert gen._edge_rate > 0
        assert gen._triangle_rate >= 0

    def test_edge_budget_respected(self, tiny_graph):
        gen = Dymond(seed=0).fit(tiny_graph)
        out = gen.generate(3, seed=1)
        per_step = tiny_graph.num_temporal_edges / tiny_graph.num_timesteps
        for snap in out:
            assert snap.num_edges <= 2 * per_step + 10


class TestNetBaselinesDeterminism:
    """The net-training baselines record each optimisation unit on a
    fresh tape; seeded fits learn bit-identical models."""

    @pytest.fixture
    def walk_graph(self):
        cfg = CoEvolutionConfig(
            num_nodes=20, num_timesteps=4, num_attributes=1,
            edges_per_step=50, num_communities=2, persistence=0.5,
        )
        return generate_co_evolving_graph(cfg, seed=3)

    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (GRAN, dict(epochs=3)),
            (TIGGER, dict(epochs=1)),
            (TGGAN, dict(adversarial_rounds=1, disc_epochs=3)),
        ],
    )
    def test_seeded_fits_generate_identically(self, walk_graph, cls, kwargs):
        outs = [
            cls(seed=4, **kwargs).fit(walk_graph).generate(3, seed=9)
            for _ in range(2)
        ]
        for a, b in zip(*outs):
            np.testing.assert_array_equal(a.adjacency, b.adjacency)
