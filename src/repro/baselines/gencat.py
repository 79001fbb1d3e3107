"""GenCAT (Maekawa et al., Information Systems 2023) — static attributed
graph generator with controlled class/attribute/topology relationships.

GenCAT's generative core: (1) latent node classes; (2) a class-to-class
preference matrix governing edge placement; (3) per-node expected
degrees; (4) class-conditioned attribute distributions.

GenCAT is a *static* model: it is fitted **once** on the time-pooled
observed graph and every generated snapshot is an independent draw from
that single fitted model.  This matches how the paper deploys it on
dynamic data and is precisely why it cannot track temporal evolution —
per-timestep attribute dispersion, density drift and the
consecutive-snapshot difference metrics all expose the staleness (the
Fig. 3 / Fig. 10 comparisons).

Simplifications vs the original release: classes come from k-means on
[mean attributes ‖ normalized mean in/out degree] rather than
user-supplied class priors, and attribute distributions are independent
Gaussians per (class, dimension) — consistent with the paper's note
that GenCAT treats attributes as independent variables (Table II).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.baselines.base import GraphGenerator
from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder


def kmeans(
    x: np.ndarray, k: int, rng: np.random.Generator, iters: int = 25
) -> np.ndarray:
    """Plain Lloyd's k-means; returns integer labels of shape (N,)."""
    n = x.shape[0]
    k = min(k, n)
    centers = x[rng.choice(n, size=k, replace=False)]
    labels = np.zeros(n, dtype=int)
    for _ in range(iters):
        dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for c in range(k):
            members = x[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    return labels


class GenCAT(GraphGenerator):
    """Latent-class attributed graph generator (static, fitted once)."""

    def __init__(self, num_classes: int = 4, seed: int = 0):
        super().__init__(seed)
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        self.num_classes = num_classes
        self._labels: Optional[np.ndarray] = None
        self._class_pref: Optional[np.ndarray] = None
        self._out_degrees: Optional[np.ndarray] = None
        self._in_weights: Optional[np.ndarray] = None
        self._attr_mu: Optional[np.ndarray] = None
        self._attr_sigma: Optional[np.ndarray] = None
        self._num_nodes = 0
        self._num_attrs = 0

    # ------------------------------------------------------------------
    def fit(self, graph: DynamicAttributedGraph) -> "GenCAT":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        rng = self._rng(None)
        n = graph.num_nodes
        f = graph.num_attributes
        self._num_nodes = n
        self._num_attrs = f
        t_len = graph.num_timesteps
        # time-pooled statistics
        mean_in = np.zeros(n)
        mean_out = np.zeros(n)
        for snap in graph:
            mean_in += snap.in_degrees()
            mean_out += snap.out_degrees()
        mean_in /= t_len
        mean_out /= t_len
        mean_attrs = graph.attribute_tensor().mean(axis=0)  # (N, F)
        feats = np.concatenate(
            [
                mean_attrs,
                (mean_in / max(mean_in.max(), 1e-9))[:, None],
                (mean_out / max(mean_out.max(), 1e-9))[:, None],
            ],
            axis=1,
        )
        labels = kmeans(feats, self.num_classes, rng)
        k_eff = labels.max() + 1
        pref = np.full((k_eff, k_eff), 1e-6)
        for snap in graph:
            for u, v in snap.edges():
                pref[labels[u], labels[v]] += 1.0
        pref /= pref.sum(axis=1, keepdims=True)
        # class-conditioned attribute Gaussians from pooled samples
        mu = np.zeros((k_eff, f))
        sigma = np.ones((k_eff, f))
        if f:
            pooled = graph.attribute_tensor()  # (T, N, F)
            for c in range(k_eff):
                members = pooled[:, labels == c, :].reshape(-1, f)
                if len(members):
                    mu[c] = members.mean(axis=0)
                    sigma[c] = np.maximum(members.std(axis=0), 1e-6)
        self._labels = labels
        self._class_pref = pref
        self._out_degrees = mean_out
        self._in_weights = mean_in + 1.0
        self._attr_mu = mu
        self._attr_sigma = sigma
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
        n = self._num_nodes
        labels = self._labels
        adj = np.zeros((n, n))
        k_eff = self._class_pref.shape[0]
        class_members = [np.nonzero(labels == c)[0] for c in range(k_eff)]
        member_weights = []
        for c in range(k_eff):
            w = self._in_weights[class_members[c]]
            member_weights.append(w / w.sum() if w.sum() > 0 else None)
        # per-node out-degree budgets are Poisson around the fitted means
        budgets = rng.poisson(np.maximum(self._out_degrees, 0.0))
        for u in np.nonzero(budgets > 0)[0]:
            dest_classes = rng.choice(
                k_eff, size=int(budgets[u]), p=self._class_pref[labels[u]]
            )
            for c in dest_classes:
                members = class_members[c]
                if len(members) == 0 or member_weights[c] is None:
                    continue
                v = rng.choice(members, p=member_weights[c])
                if v != u:
                    adj[u, v] = 1.0
        np.fill_diagonal(adj, 0.0)
        if self._num_attrs:
            attrs = rng.normal(
                self._attr_mu[labels], self._attr_sigma[labels]
            )
        else:
            attrs = np.zeros((n, 0))
        return adj, attrs
