"""ANC — Attributed Networks with Communities (Largeron et al., 2015).

The paper's related work (§V) describes ANC as the generator that
produces numeric node attributes following a normal distribution inside
explicit communities.  The original algorithm grows an undirected
attributed graph by repeatedly inserting nodes and wiring them with a
mix of preferential attachment and attribute homophily inside their
community; attributes are Gaussian around per-community centers.

This implementation keeps the three ANC ingredients —

1. **Communities** with Gaussian attribute centers.
2. **Homophily-weighted edge placement**: a node links mostly within
   its community, preferring attribute-similar and high-degree targets.
3. **Between-community noise edges** at a fitted rate.

— and fits their parameters from an observed dynamic graph (community
count via attribute k-means, within/between edge rates and degree
profile from the time-pooled topology).  Like GenCAT/AGM it is a static
model: snapshots are generated independently, so it serves as another
"no temporal modelling" reference point in the attribute evaluation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.base import GraphGenerator
from repro.baselines.gencat import kmeans
from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder


class ANC(GraphGenerator):
    """Community-structured attributed generator (static, fitted once)."""

    def __init__(self, num_communities: int = 4, seed: int = 0,
                 homophily: float = 2.0):
        super().__init__(seed)
        if num_communities < 1:
            raise ValueError("num_communities must be >= 1")
        if homophily < 0:
            raise ValueError("homophily must be >= 0")
        self.num_communities = num_communities
        #: inverse temperature of the attribute-similarity edge weighting
        self.homophily = homophily
        self._labels: Optional[np.ndarray] = None
        self._centers: Optional[np.ndarray] = None     # (K, F)
        self._spread: Optional[np.ndarray] = None      # (K, F)
        self._within_rate: float = 0.0
        self._between_rate: float = 0.0
        self._out_degrees: Optional[np.ndarray] = None
        self._num_nodes = 0
        self._num_attrs = 0

    # ------------------------------------------------------------------
    def fit(self, graph: DynamicAttributedGraph) -> "ANC":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        rng = self._rng(None)
        n, f = graph.num_nodes, graph.num_attributes
        self._num_nodes, self._num_attrs = n, f
        mean_attrs = graph.attribute_tensor().mean(axis=0)  # (N, F)
        if f:
            labels = kmeans(mean_attrs, self.num_communities, rng)
        else:
            labels = rng.integers(0, self.num_communities, size=n)
        k_eff = int(labels.max()) + 1
        centers = np.zeros((k_eff, max(f, 1)))
        spread = np.ones((k_eff, max(f, 1)))
        if f:
            pooled = graph.attribute_tensor()  # (T, N, F)
            for c in range(k_eff):
                members = pooled[:, labels == c, :].reshape(-1, f)
                if len(members):
                    centers[c, :f] = members.mean(axis=0)
                    spread[c, :f] = np.maximum(members.std(axis=0), 1e-6)
        # within/between community edge counts per step
        within = 0.0
        between = 0.0
        out_deg = np.zeros(n)
        for snap in graph:
            src, dst = np.nonzero(snap.adjacency)
            same = labels[src] == labels[dst]
            within += float(same.sum())
            between += float((~same).sum())
            out_deg += snap.out_degrees()
        t_len = graph.num_timesteps
        self._labels = labels
        self._centers = centers[:, :f] if f else np.zeros((k_eff, 0))
        self._spread = spread[:, :f] if f else np.ones((k_eff, 0))
        self._within_rate = within / t_len
        self._between_rate = between / t_len
        self._out_degrees = out_deg / t_len
        self.fitted = True
        return self

    # ------------------------------------------------------------------
    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate ``num_timesteps`` snapshots from the fitted model."""
        self._require_fitted()
        rng = self._rng(seed)
        builder = TemporalEdgeStoreBuilder(self._num_nodes, self._num_attrs)
        for _ in range(num_timesteps):
            adj, attrs = self._generate_step(rng)
            # 0/1 and loop-free: the nonzeros are canonical
            builder.add_step(*np.nonzero(adj), attrs, canonical=True)
        return builder.build().to_graph()

    def _generate_step(
        self, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        n, f = self._num_nodes, self._num_attrs
        labels = self._labels
        if f:
            attrs = rng.normal(self._centers[labels], self._spread[labels])
        else:
            attrs = np.zeros((n, 0))
        adj = np.zeros((n, n))
        degree_w = self._out_degrees + 0.5  # preferential-attachment prior
        k_eff = int(labels.max()) + 1
        members: List[np.ndarray] = [
            np.nonzero(labels == c)[0] for c in range(k_eff)
        ]
        self._place_within(adj, attrs, members, degree_w, rng)
        self._place_between(adj, degree_w, rng)
        np.fill_diagonal(adj, 0.0)
        return adj, attrs

    def _place_within(
        self,
        adj: np.ndarray,
        attrs: np.ndarray,
        members: List[np.ndarray],
        degree_w: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Homophily + preferential attachment edges inside communities."""
        target = rng.poisson(self._within_rate)
        sizes = np.array([len(m) for m in members], dtype=float)
        capacity = sizes * np.maximum(sizes - 1, 0)
        if capacity.sum() == 0 or target == 0:
            return
        quota = rng.multinomial(target, capacity / capacity.sum())
        for c, q in enumerate(quota):
            nodes = members[c]
            if len(nodes) < 2:
                continue
            w_src = degree_w[nodes] / degree_w[nodes].sum()
            for _ in range(int(q)):
                u = rng.choice(nodes, p=w_src)
                weights = degree_w[nodes].copy()
                if self._num_attrs:
                    dist = np.linalg.norm(attrs[nodes] - attrs[u], axis=1)
                    scale = max(float(dist.std()), 1e-9)
                    weights = weights * np.exp(
                        -self.homophily * dist / scale
                    )
                weights[nodes == u] = 0.0
                if weights.sum() <= 0:
                    continue
                v = rng.choice(nodes, p=weights / weights.sum())
                adj[u, v] = 1.0

    def _place_between(
        self,
        adj: np.ndarray,
        degree_w: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Degree-weighted noise edges across communities."""
        target = rng.poisson(self._between_rate)
        if target == 0 or self._num_nodes < 2:
            return
        p = degree_w / degree_w.sum()
        src = rng.choice(self._num_nodes, size=target, p=p)
        dst = rng.choice(self._num_nodes, size=target, p=p)
        labels = self._labels
        for u, v in zip(src, dst):
            if u != v and labels[u] != labels[v]:
                adj[u, v] = 1.0

    def community_labels(self) -> np.ndarray:
        """Fitted community assignment, shape ``(N,)``."""
        self._require_fitted()
        return self._labels.copy()
