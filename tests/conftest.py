"""Shared fixtures: small deterministic graphs and gradient-check helpers."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import CoEvolutionConfig, generate_co_evolving_graph
from repro.graph import DynamicAttributedGraph, GraphSnapshot


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_snapshot():
    """12-node directed snapshot with 2 attributes and varied structure."""
    rng = np.random.default_rng(7)
    adj = (rng.random((12, 12)) < 0.25).astype(float)
    np.fill_diagonal(adj, 0.0)
    attrs = rng.normal(size=(12, 2))
    return GraphSnapshot(adj, attrs)


@pytest.fixture
def tiny_graph():
    """Small co-evolving dynamic graph: N=16, T=4, F=2."""
    cfg = CoEvolutionConfig(
        num_nodes=16,
        num_timesteps=4,
        num_attributes=2,
        edges_per_step=30,
        num_communities=3,
    )
    return generate_co_evolving_graph(cfg, seed=42)


@pytest.fixture
def structure_only_graph():
    """Dynamic graph with no attributes (F=0)."""
    cfg = CoEvolutionConfig(
        num_nodes=14,
        num_timesteps=3,
        num_attributes=0,
        edges_per_step=25,
        num_communities=2,
    )
    return generate_co_evolving_graph(cfg, seed=5)


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = fn(x)
        x[idx] = orig - eps
        f_minus = fn(x)
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def store_digest(graph) -> str:
    """SHA-256 over every column of ``graph``'s store (dtype, shape, bytes)."""
    store = graph.store
    h = hashlib.sha256()
    for arr in (store.src, store.dst, store.t, store.offsets, store.attributes):
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def sampled_adjacency(sampler, s, rng) -> np.ndarray:
    """Dense ``(N, N)`` 0/1 matrix of one ``sampler.sample_edges`` draw."""
    n = np.shape(getattr(s, "data", s))[0]
    src, dst = sampler.sample_edges(s, rng)
    adj = np.zeros((n, n))
    adj[src, dst] = 1.0
    return adj
