"""Dymond (Zeno et al., WWW 2021) — dynamic motif-activity generator.

Dymond assumes each motif type (edge, wedge, triangle) arrives with a
time-independent exponential rate and replays motif activity to build
snapshots.  Fitting enumerates motifs per snapshot and estimates (a)
per-type arrival rates and (b) node role propensities; generation
places motifs with degree-weighted role assignment until the expected
per-type counts are met.

Like the original (which stores millions of motifs across time — the
reason the paper could only run it on the smallest dataset), motif
enumeration is the expensive part; we cap it with ``max_nodes`` and
raise on larger inputs, mirroring the paper's footnote that Dymond ran
only on Email.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import GraphGenerator
from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder


class DymondCapacityError(RuntimeError):
    """Raised when the input exceeds Dymond's motif-storage capacity."""


class Dymond(GraphGenerator):
    """Motif (edge/wedge/triangle) arrival-rate generator."""

    def __init__(self, max_nodes: int = 400, seed: int = 0):
        super().__init__(seed)
        self.max_nodes = max_nodes
        self._edge_rate = 0.0
        self._wedge_rate = 0.0
        self._triangle_rate = 0.0
        self._node_weights: Optional[np.ndarray] = None
        self._num_nodes = 0
        self._num_attrs = 0

    # ------------------------------------------------------------------
    def fit(self, graph: DynamicAttributedGraph) -> "Dymond":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        if graph.num_nodes > self.max_nodes:
            raise DymondCapacityError(
                f"Dymond motif storage capped at {self.max_nodes} nodes "
                f"(got {graph.num_nodes}); the paper could likewise only "
                "run Dymond on the smallest dataset"
            )
        self._num_nodes = graph.num_nodes
        self._num_attrs = graph.num_attributes
        t_len = graph.num_timesteps
        edge_counts, wedge_counts, tri_counts = [], [], []
        node_activity = np.ones(graph.num_nodes)
        for snap in graph:
            sym = snap.undirected_adjacency()
            deg = sym.sum(axis=1)
            node_activity += deg
            m = sym.sum() / 2.0
            tri = np.trace(sym @ sym @ sym) / 6.0
            wedge = float((deg * (deg - 1) / 2.0).sum()) - 3.0 * tri
            edge_counts.append(m)
            wedge_counts.append(max(wedge, 0.0))
            tri_counts.append(tri)
        # exponential arrival MLE = mean per-step count
        self._edge_rate = float(np.mean(edge_counts))
        self._wedge_rate = float(np.mean(wedge_counts))
        self._triangle_rate = float(np.mean(tri_counts))
        self._node_weights = node_activity / node_activity.sum()
        self.fitted = True
        return self

    # ------------------------------------------------------------------
    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate ``num_timesteps`` snapshots from the fitted model."""
        self._require_fitted()
        rng = self._rng(seed)
        n = self._num_nodes
        builder = TemporalEdgeStoreBuilder(n, self._num_attrs)
        # motif budgets: wedges/triangles consume edges too, so the edge
        # budget is what remains after structured motifs are placed
        tri_budget = int(rng.poisson(max(self._triangle_rate, 0.0)))
        wedge_budget = int(
            rng.poisson(max(self._wedge_rate, 0.0)) // max(num_timesteps, 1)
        )
        for _ in range(num_timesteps):
            adj = np.zeros((n, n))
            placed = 0.0
            tri_budget = int(rng.poisson(max(self._triangle_rate, 0.0)))
            for _ in range(tri_budget):
                trio = rng.choice(n, size=3, replace=False, p=self._node_weights)
                for a, b in ((0, 1), (1, 2), (0, 2)):
                    u, v = trio[a], trio[b]
                    if adj[u, v] == 0 and adj[v, u] == 0:
                        self._orient(adj, u, v, rng)
                        placed += 1
            # wedges: estimated count scaled down (each wedge = 2 edges)
            wedges = int(max(self._wedge_rate, 0.0) ** 0.5)
            for _ in range(wedges):
                trio = rng.choice(n, size=3, replace=False, p=self._node_weights)
                for a, b in ((0, 1), (0, 2)):
                    u, v = trio[a], trio[b]
                    if adj[u, v] == 0 and adj[v, u] == 0:
                        self._orient(adj, u, v, rng)
                        placed += 1
            # independent edges fill the remaining budget
            while placed < self._edge_rate:
                u, v = rng.choice(n, size=2, replace=False, p=self._node_weights)
                if adj[u, v] == 0 and adj[v, u] == 0:
                    self._orient(adj, u, v, rng)
                placed += 1
            np.fill_diagonal(adj, 0.0)
            builder.add_step(*np.nonzero(adj), canonical=True)
        return builder.build().to_graph()

    @staticmethod
    def _orient(adj: np.ndarray, u: int, v: int, rng: np.random.Generator) -> None:
        if rng.random() < 0.5:
            adj[u, v] = 1.0
        else:
            adj[v, u] = 1.0
