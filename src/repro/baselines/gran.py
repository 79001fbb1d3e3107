"""GRAN (Liao et al., NeurIPS 2019) — autoregressive graph generation
with a mixture-of-Bernoulli output head, simplified.

GRAN generates a static graph one node (block) at a time: when node
``i`` arrives, a network scores candidate edges to all previously
generated nodes and samples them from a mixture of Bernoullis.  Our
re-implementation keeps the autoregressive row-by-row scheme and the
learned edge scorer, replacing the full GNN-over-partial-graph with a
feature-based MLP (degree-so-far of both endpoints, arrival-rank
distance, and common-neighbour count) trained on the observed
snapshots with our nn substrate.

Being a *static* model, GRAN is fitted on the pooled snapshots and
generates each snapshot independently — matching how the paper applies
static baselines to dynamic data (and why they score poorly on the
dynamic difference metrics).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autodiff import Tape, functional as F, no_grad
from repro.autodiff.tensor import as_tensor
from repro.baselines.base import GraphGenerator
from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder
from repro.nn import Adam, MLP

_FEATURES = 4  # deg_i, deg_j, rank distance, common neighbours


def _edge_features(adj: np.ndarray, i: int, order: np.ndarray, upto: int) -> np.ndarray:
    """Features of candidate edges (order[i] -> order[j]) for j < upto."""
    n = adj.shape[0]
    src = order[i]
    prev = order[:upto]
    deg = adj.sum(axis=1) + adj.sum(axis=0)
    common = (adj[src] @ adj[prev].T) / max(n, 1)
    feats = np.stack(
        [
            np.full(upto, deg[src] / n),
            deg[prev] / n,
            (i - np.arange(upto)) / n,
            common,
        ],
        axis=1,
    )
    return feats


class GRAN(GraphGenerator):
    """Autoregressive row-wise structure generator (static, simplified)."""

    _STATE_EXCLUDE = ("_scorer",)

    def __init__(
        self,
        hidden_dim: int = 16,
        epochs: int = 30,
        learning_rate: float = 1e-2,
        seed: int = 0,
    ):
        super().__init__(seed)
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self._scorer: Optional[MLP] = None
        self._num_nodes = 0
        self._avg_edges = 0.0
        self._num_attrs = 0

    # ------------------------------------------------------------------
    def fit(self, graph: DynamicAttributedGraph) -> "GRAN":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        rng = self._rng(None)
        n = graph.num_nodes
        self._num_nodes = n
        self._num_attrs = graph.num_attributes
        self._avg_edges = graph.num_temporal_edges / graph.num_timesteps
        self._scorer = MLP(
            [_FEATURES, self.hidden_dim, 1], activation="relu", rng=rng
        )
        optimizer = Adam(self._scorer.parameters(), lr=self.learning_rate)
        # training set: pooled (features, label) pairs over all snapshots,
        # with a degree-descending node ordering per snapshot (GRAN's
        # canonical orderings are BFS/degree based)
        feats_list, labels_list = [], []
        for snap in graph:
            adj = snap.adjacency
            order = np.argsort(-snap.degrees())
            for i in range(1, n):
                f = _edge_features(adj, i, order, i)
                y = adj[order[i], order[:i]]
                feats_list.append(f)
                labels_list.append(y)
        feats = np.concatenate(feats_list)
        labels = np.concatenate(labels_list)
        # subsample negatives to balance classes (graphs are sparse)
        pos = np.nonzero(labels > 0)[0]
        neg = np.nonzero(labels == 0)[0]
        keep_neg = rng.choice(
            neg, size=min(len(neg), max(len(pos) * 4, 100)), replace=False
        )
        idx = np.concatenate([pos, keep_neg])
        feats, labels = feats[idx], labels[idx]
        x = as_tensor(feats)
        for _ in range(self.epochs):
            with Tape():
                logits = self._scorer(x).reshape(len(labels))
                p = F.clip(F.sigmoid(logits), 1e-7, 1 - 1e-7)
                loss = -(
                    labels * F.log(p) + (1 - labels) * F.log(1 - p)
                ).mean()
                optimizer.zero_grad()
                loss.backward()
            optimizer.step()
        self.fitted = True
        return self

    # ------------------------------------------------------------------
    def get_state(self):
        """Reflective state plus the edge scorer's weights."""
        state = super().get_state()
        if self._scorer is not None:
            state["__scorer__"] = self._scorer.state_dict()
        return state

    def set_state(self, state) -> None:
        """Restore state, rebuilding the scorer MLP from its weights."""
        state = dict(state)
        scorer = state.pop("__scorer__", None)
        super().set_state(state)
        if scorer is None:
            self._scorer = None
        else:
            self._scorer = MLP(
                [_FEATURES, self.hidden_dim, 1], activation="relu",
                rng=np.random.default_rng(0),
            )
            self._scorer.load_state_dict(scorer)

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
        n = self._num_nodes
        adj = np.zeros((n, n))
        order = rng.permutation(n)
        target_edges = self._avg_edges
        density_scale = 1.0
        with no_grad():
            for i in range(1, n):
                feats = _edge_features(adj, i, order, i)
                logits = self._scorer(as_tensor(feats)).data.reshape(-1)
                probs = 1.0 / (1.0 + np.exp(-logits))
                probs = np.clip(probs * density_scale, 0.0, 1.0)
                draws = rng.random(i) < probs
                src = order[i]
                for j in np.nonzero(draws)[0]:
                    dst = order[j]
                    # orient randomly: GRAN is undirected, datasets are not
                    if rng.random() < 0.5:
                        adj[src, dst] = 1.0
                    else:
                        adj[dst, src] = 1.0
                # adapt density toward the target edge count
                done = adj.sum()
                expected = target_edges * (i / n)
                if done > 1.2 * expected:
                    density_scale *= 0.9
                elif done < 0.8 * expected:
                    density_scale *= 1.1
        np.fill_diagonal(adj, 0.0)
        attrs = np.zeros((n, self._num_attrs))
        return adj, attrs
