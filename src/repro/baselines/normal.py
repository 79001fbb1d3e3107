"""The "Normal" attribute baseline of Fig. 3.

Estimates, per timestep and per attribute dimension, the mean and
variance of the ground-truth attributes and samples i.i.d. Gaussians.
Structure is an Erdős–Rényi match of the original per-step densities so
the output is a complete dynamic attributed graph (only its attributes
are compared in Fig. 3, but the harness treats all generators
uniformly).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import GraphGenerator
from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder


class NormalAttributeGenerator(GraphGenerator):
    """Per-step independent Gaussian attributes + density-matched ER edges."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._mu: Optional[np.ndarray] = None      # (T, F)
        self._sigma: Optional[np.ndarray] = None   # (T, F)
        self._density: Optional[np.ndarray] = None  # (T,)
        self._num_nodes = 0

    def fit(self, graph: DynamicAttributedGraph) -> "NormalAttributeGenerator":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        t_len, n, f = graph.num_timesteps, graph.num_nodes, graph.num_attributes
        self._num_nodes = n
        self._mu = np.zeros((t_len, f))
        self._sigma = np.zeros((t_len, f))
        self._density = np.zeros(t_len)
        for t, snap in enumerate(graph):
            if f:
                self._mu[t] = snap.attributes.mean(axis=0)
                self._sigma[t] = snap.attributes.std(axis=0)
            self._density[t] = snap.num_edges / max(n * (n - 1), 1)
        self.fitted = True
        return self

    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate ``num_timesteps`` snapshots from the fitted model."""
        self._require_fitted()
        rng = self._rng(seed)
        n = self._num_nodes
        f = self._mu.shape[1]
        builder = TemporalEdgeStoreBuilder(n, f)
        for t in range(num_timesteps):
            src = min(t, len(self._density) - 1)  # clamp beyond fitted horizon
            adj = (rng.random((n, n)) < self._density[src]).astype(np.float64)
            np.fill_diagonal(adj, 0.0)
            attrs = rng.normal(
                self._mu[src], np.maximum(self._sigma[src], 1e-9), size=(n, f)
            ) if f else np.zeros((n, 0))
            builder.add_step(*np.nonzero(adj), attrs, canonical=True)
        return builder.build().to_graph()
