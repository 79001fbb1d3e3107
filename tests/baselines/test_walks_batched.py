"""Batched temporal-walk sampler: invariants shared with the scalar
reference sampler (:meth:`TemporalWalkSampler.sample_walk`)."""

import numpy as np
import pytest

from repro.baselines.walks import TemporalWalkSampler
from repro.graph import TemporalEdgeStore


def _random_store(seed: int, n: int = 20, e: int = 120, t_len: int = 6):
    rng = np.random.default_rng(seed)
    return TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=e),
        rng.integers(0, n, size=e),
        rng.integers(0, t_len, size=e),
    )


def _triples(store):
    return zip(store.src.tolist(), store.dst.tolist(), store.t.tolist())


@pytest.fixture
def stream():
    return _random_store(0)


class TestBatchedSampler:
    def test_respects_time_window(self, stream):
        sampler = TemporalWalkSampler(stream, time_window=1, seed=0)
        for walk in sampler.sample_walks(200, 6):
            for (u, tu), (v, tv) in zip(walk, walk[1:]):
                assert abs(tv - tu) <= 1

    def test_traverses_real_edges(self, stream):
        sampler = TemporalWalkSampler(stream, time_window=0, seed=1)
        sym = set()
        for u, v, t in _triples(stream):
            sym.add((u, v, t))
            sym.add((v, u, t))
        for walk in sampler.sample_walks(200, 5):
            for (u, tu), (v, tv) in zip(walk, walk[1:]):
                assert (u, v, tv) in sym

    def test_starts_are_stream_edges(self, stream):
        sampler = TemporalWalkSampler(stream, seed=2)
        starts = {(u, t) for u, v, t in _triples(stream)}
        for walk in sampler.sample_walks(100, 4):
            assert walk[0] in starts

    def test_lengths_bounded_and_trivial_filtered(self, stream):
        sampler = TemporalWalkSampler(stream, seed=3)
        walks = sampler.sample_walks(150, 4)
        assert walks
        assert all(2 <= len(w) <= 4 for w in walks)

    def test_reads_store_columns_without_copy(self, stream):
        sampler = TemporalWalkSampler(stream, seed=0)
        assert np.shares_memory(sampler._start_u, stream.src)
        assert np.shares_memory(sampler._start_t, stream.t)

    def test_empty_stream(self):
        sampler = TemporalWalkSampler(TemporalEdgeStore(3, 2, [], [], []), seed=0)
        assert sampler.sample_walks(10, 4) == []
        assert sampler.sample_walks(0, 4) == []

    def test_degenerate_lengths(self, stream):
        sampler = TemporalWalkSampler(stream, seed=0)
        assert sampler.sample_walks(10, 0) == []
        assert sampler.sample_walks(10, 1) == []

    def test_deterministic_under_seed(self, stream):
        a = TemporalWalkSampler(stream, seed=11).sample_walks(50, 5)
        b = TemporalWalkSampler(stream, seed=11).sample_walks(50, 5)
        assert a == b

    def test_walk_support_matches_scalar(self):
        """Batch and scalar samplers draw from the same walk process:
        on a tiny chain their supports (sets of distinct sampled
        walks) coincide once enough draws are taken."""
        chain = TemporalEdgeStore(4, 3, [0, 1, 2], [1, 2, 3], [0, 1, 2])
        sampler = TemporalWalkSampler(chain, time_window=1, seed=0)
        batch = {tuple(w) for w in sampler.sample_walks(400, 3)}
        scalar = set()
        for _ in range(400):
            w = sampler.sample_walk(3)
            if w and len(w) >= 2:
                scalar.add(tuple(w))
        assert batch == scalar
