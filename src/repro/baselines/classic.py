"""Classic random-graph reference generators (§V related work).

The paper positions VRDAG against the traditional model families —
Erdős–Rényi, Barabási–Albert preferential attachment, stochastic block
models and Kronecker graphs.  These are not in Table I but are the
standard sanity baselines any generator library ships; all implement
the common :class:`GraphGenerator` protocol (fitted to match coarse
statistics of the observed sequence, generated i.i.d. per snapshot —
they are static models).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import GraphGenerator
from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder


class ErdosRenyi(GraphGenerator):
    """Directed G(n, p) with p matched to the mean observed density."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._p = 0.0
        self._num_nodes = 0
        self._num_attrs = 0

    def fit(self, graph: DynamicAttributedGraph) -> "ErdosRenyi":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        n = graph.num_nodes
        self._num_nodes = n
        self._num_attrs = graph.num_attributes
        self._p = graph.num_temporal_edges / max(
            graph.num_timesteps * n * (n - 1), 1
        )
        self.fitted = True
        return self

    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate ``num_timesteps`` snapshots from the fitted model."""
        self._require_fitted()
        rng = self._rng(seed)
        n = self._num_nodes
        builder = TemporalEdgeStoreBuilder(n, self._num_attrs)
        for _ in range(num_timesteps):
            adj = (rng.random((n, n)) < self._p).astype(np.float64)
            np.fill_diagonal(adj, 0.0)
            builder.add_step(*np.nonzero(adj), canonical=True)
        return builder.build().to_graph()


class BarabasiAlbert(GraphGenerator):
    """Directed preferential attachment matched to mean edges/step.

    Nodes are processed in random order; each attaches ``m`` out-edges
    to targets drawn proportionally to in-degree + 1 (Albert &
    Barabási, 2002), yielding the heavy-tailed in-degree distribution.
    """

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._m = 1
        self._num_nodes = 0
        self._num_attrs = 0

    def fit(self, graph: DynamicAttributedGraph) -> "BarabasiAlbert":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        n = graph.num_nodes
        self._num_nodes = n
        self._num_attrs = graph.num_attributes
        edges_per_step = graph.num_temporal_edges / graph.num_timesteps
        self._m = max(1, int(round(edges_per_step / n)))
        self._extra = max(0, int(round(edges_per_step - self._m * n)))
        self.fitted = True
        return self

    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate ``num_timesteps`` snapshots from the fitted model."""
        self._require_fitted()
        rng = self._rng(seed)
        n = self._num_nodes
        builder = TemporalEdgeStoreBuilder(n, self._num_attrs)
        for _ in range(num_timesteps):
            adj = np.zeros((n, n))
            in_deg = np.ones(n)
            order = rng.permutation(n)
            for u in order:
                weights = in_deg.copy()
                weights[u] = 0.0
                probs = weights / weights.sum()
                count = min(self._m, n - 1)
                targets = rng.choice(n, size=count, replace=False, p=probs)
                for v in targets:
                    adj[u, v] = 1.0
                    in_deg[v] += 1
            # spread any residual edge budget uniformly
            for _ in range(self._extra):
                u, v = rng.choice(n, size=2, replace=False)
                adj[u, v] = 1.0
            np.fill_diagonal(adj, 0.0)
            builder.add_step(*np.nonzero(adj), canonical=True)
        return builder.build().to_graph()


class StochasticBlockModel(GraphGenerator):
    """Directed SBM with blocks recovered by degree-profile k-means."""

    def __init__(self, num_blocks: int = 4, seed: int = 0):
        super().__init__(seed)
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        self.num_blocks = num_blocks
        self._labels: Optional[np.ndarray] = None
        self._block_p: Optional[np.ndarray] = None
        self._num_attrs = 0

    def fit(self, graph: DynamicAttributedGraph) -> "StochasticBlockModel":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        from repro.baselines.gencat import kmeans

        rng = self._rng(None)
        n = graph.num_nodes
        self._num_attrs = graph.num_attributes
        # block assignment from time-averaged connectivity profile
        mean_adj = graph.adjacency_tensor().mean(axis=0)
        profile = np.concatenate([mean_adj, mean_adj.T], axis=1)
        labels = kmeans(profile, self.num_blocks, rng)
        k = labels.max() + 1
        counts = np.zeros((k, k))
        sizes = np.zeros((k, k))
        for a in range(k):
            for b in range(k):
                na = int((labels == a).sum())
                nb = int((labels == b).sum())
                pairs = na * nb - (na if a == b else 0)
                sizes[a, b] = max(pairs, 1)
        for snap in graph:
            for u, v in snap.edges():
                counts[labels[u], labels[v]] += 1
        self._block_p = counts / (sizes * graph.num_timesteps)
        self._block_p = np.clip(self._block_p, 0.0, 1.0)
        self._labels = labels
        self.fitted = True
        return self

    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate ``num_timesteps`` snapshots from the fitted model."""
        self._require_fitted()
        rng = self._rng(seed)
        labels = self._labels
        n = len(labels)
        p_matrix = self._block_p[labels[:, None], labels[None, :]]
        builder = TemporalEdgeStoreBuilder(n, self._num_attrs)
        for _ in range(num_timesteps):
            adj = (rng.random((n, n)) < p_matrix).astype(np.float64)
            np.fill_diagonal(adj, 0.0)
            builder.add_step(*np.nonzero(adj), canonical=True)
        return builder.build().to_graph()


class KroneckerGraph(GraphGenerator):
    """Stochastic Kronecker graph (Leskovec et al., 2010), fitted by
    moment matching of the 2x2 initiator to the observed density and
    degree skew."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._initiator: Optional[np.ndarray] = None
        self._k = 0
        self._num_nodes = 0
        self._num_attrs = 0
        self._target_edges = 0.0

    def fit(self, graph: DynamicAttributedGraph) -> "KroneckerGraph":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        n = graph.num_nodes
        self._num_nodes = n
        self._num_attrs = graph.num_attributes
        self._k = max(1, int(np.ceil(np.log2(max(n, 2)))))
        self._target_edges = graph.num_temporal_edges / graph.num_timesteps
        # classic skewed initiator shape [[a, b], [b, c]], scaled so the
        # expected edge count matches: E = (a + 2b + c)^k
        a, b, c = 0.9, 0.5, 0.2
        total = a + 2 * b + c
        scale = (max(self._target_edges, 1.0) ** (1.0 / self._k)) / total
        self._initiator = np.clip(
            np.array([[a, b], [b, c]]) * scale, 0.0, 1.0
        )
        self.fitted = True
        return self

    def _edge_probabilities(self) -> np.ndarray:
        p = self._initiator
        probs = p.copy()
        for _ in range(self._k - 1):
            probs = np.kron(probs, p)
        return probs[: self._num_nodes, : self._num_nodes]

    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate ``num_timesteps`` snapshots from the fitted model."""
        self._require_fitted()
        rng = self._rng(seed)
        probs = np.clip(self._edge_probabilities(), 0.0, 1.0)
        n = self._num_nodes
        builder = TemporalEdgeStoreBuilder(n, self._num_attrs)
        for _ in range(num_timesteps):
            adj = (rng.random((n, n)) < probs).astype(np.float64)
            np.fill_diagonal(adj, 0.0)
            builder.add_step(*np.nonzero(adj), canonical=True)
        return builder.build().to_graph()
