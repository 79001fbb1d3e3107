"""Temporal walk machinery tests."""

import numpy as np
import pytest

from repro.baselines.walks import (
    TemporalWalkSampler,
    merge_walks_into_graph,
    walk_transition_counts,
)
from repro.graph import TemporalEdgeStore


EDGES = [
    (0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 4, 1),
    (4, 5, 2), (5, 0, 2), (0, 2, 3), (1, 3, 3),
]


@pytest.fixture
def stream():
    src, dst, t = zip(*EDGES)
    return TemporalEdgeStore(6, 4, src, dst, t)


class TestTemporalWalkSampler:
    def test_walks_respect_time_window(self, stream):
        sampler = TemporalWalkSampler(stream, time_window=1, seed=0)
        for _ in range(50):
            walk = sampler.sample_walk(5)
            if walk is None:
                continue
            for (u, tu), (v, tv) in zip(walk, walk[1:]):
                assert abs(tv - tu) <= 1

    def test_walk_length_bounded(self, stream):
        sampler = TemporalWalkSampler(stream, seed=0)
        for _ in range(20):
            walk = sampler.sample_walk(4)
            assert walk is None or len(walk) <= 4

    def test_walks_traverse_real_edges(self, stream):
        sampler = TemporalWalkSampler(stream, time_window=0, seed=0)
        # with window 0, each hop must be an edge at exactly that time
        sym_edges = set()
        for u, v, t in EDGES:
            sym_edges.add((u, v, t))
            sym_edges.add((v, u, t))
        for _ in range(50):
            walk = sampler.sample_walk(4)
            if walk is None or len(walk) < 2:
                continue
            for (u, tu), (v, tv) in zip(walk, walk[1:]):
                assert (u, v, tv) in sym_edges

    def test_empty_stream(self):
        sampler = TemporalWalkSampler(TemporalEdgeStore(3, 2, [], [], []), seed=0)
        assert sampler.sample_walk(3) is None
        assert sampler.sample_walks(5, 3) == []

    def test_sample_walks_filters_trivial(self, stream):
        sampler = TemporalWalkSampler(stream, seed=0)
        walks = sampler.sample_walks(30, 5)
        assert all(len(w) >= 2 for w in walks)


class TestTransitionCounts:
    def test_counts(self):
        walks = [[(0, 0), (1, 0), (2, 1)], [(0, 0), (1, 0)]]
        counts = walk_transition_counts(walks, 4, 3)
        assert counts[(0, 1, 0)] == 2
        assert counts[(1, 2, 1)] == 1

    def test_skips_self_transitions(self):
        counts = walk_transition_counts([[(0, 0), (0, 1)]], 3, 2)
        assert len(counts) == 0

    def test_clamps_time(self):
        counts = walk_transition_counts([[(0, 0), (1, 99)]], 3, 2)
        assert counts[(0, 1, 1)] == 1


class TestMergeWalks:
    def test_target_edges_met(self, rng):
        walks = [[(0, 0), (1, 0), (2, 0)], [(3, 0), (4, 0)]]
        g = merge_walks_into_graph(walks, 6, 2, [5, 5], rng)
        assert g[0].num_edges == 5  # padded to target
        assert g[1].num_edges == 5

    def test_high_multiplicity_edges_kept_first(self, rng):
        walks = [[(0, 0), (1, 0)]] * 10 + [[(2, 0), (3, 0)]]
        g = merge_walks_into_graph(walks, 5, 1, [1], rng)
        assert g[0].adjacency[0, 1] == 1.0  # the 10x edge wins

    def test_no_self_loops(self, rng):
        walks = [[(0, 0), (1, 0)]]
        g = merge_walks_into_graph(walks, 4, 1, [8], rng)
        assert np.all(np.diag(g[0].adjacency) == 0)
