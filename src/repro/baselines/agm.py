"""AGM — Attributed Graph Model (Pfeiffer III et al., WWW 2014).

The paper's related work (§V) singles AGM out as the framework that
*jointly* models network structure and vertex attributes: a structural
proposal model generates candidate edges, and an attribute-based
accept/reject step reshapes them so the joint distribution of endpoint
attribute combinations matches the observed graph.

Implementation here follows the original's three components:

1. **Attribute model** ``P(X)`` — empirical: generated nodes draw their
   attribute vector by resampling observed rows (preserving the full
   joint marginal, which is exactly what AGM assumes available).
2. **Structural proposal** ``M_E`` — directed Chung–Lu: edge ``(u, v)``
   proposed proportionally to ``outdeg(u) * indeg(v)``.
3. **Acceptance ratios** — attributes are discretized into per-dimension
   median bins; the acceptance weight of an edge is the ratio of the
   observed frequency of its (source-bin, destination-bin) combination
   to the frequency the structural proposal alone would produce
   (Pfeiffer's ``f(x_u, x_v)``), capped for stability.

AGM is a *static* model like GenCAT: fitted once on the time-pooled
graph, each generated snapshot is an independent draw.  Its value in
this reproduction is as an extra reference point for the attribute
evaluation (Fig. 3 family): AGM preserves attribute/structure coupling
better than Normal but, being static, still cannot track temporal
co-evolution.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.baselines.base import GraphGenerator
from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder

#: acceptance-ratio cap (avoids unbounded importance weights on rare bins)
_MAX_ACCEPT_RATIO = 20.0


class AGM(GraphGenerator):
    """Chung–Lu structure with attribute-combination accept/reject."""

    def __init__(self, seed: int = 0, oversample: float = 3.0):
        super().__init__(seed)
        if oversample < 1.0:
            raise ValueError("oversample must be >= 1.0")
        #: proposal multiplier: candidates drawn per target edge before
        #: the accept/reject step thins them back down
        self.oversample = oversample
        self._attr_pool: Optional[np.ndarray] = None   # (T*N, F)
        self._mean_attrs: Optional[np.ndarray] = None  # (N, F)
        self._medians: Optional[np.ndarray] = None     # (F,)
        self._out_w: Optional[np.ndarray] = None       # (N,)
        self._in_w: Optional[np.ndarray] = None        # (N,)
        self._accept: Optional[np.ndarray] = None      # (B, B) bin ratios
        self._edges_per_step: float = 0.0
        self._num_nodes = 0
        self._num_attrs = 0

    # ------------------------------------------------------------------
    def fit(self, graph: DynamicAttributedGraph) -> "AGM":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        n, f = graph.num_nodes, graph.num_attributes
        self._num_nodes, self._num_attrs = n, f
        t_len = graph.num_timesteps
        pooled_attrs = (
            graph.attribute_tensor().reshape(t_len * n, f)  # (T*N, F)
            if f
            else np.zeros((t_len * n, 0))
        )
        self._attr_pool = pooled_attrs
        self._medians = (
            np.median(pooled_attrs, axis=0) if f else np.zeros(0)
        )
        self._mean_attrs = (
            graph.attribute_tensor().mean(axis=0)  # (N, F)
            if f
            else np.zeros((n, 0))
        )
        # time-pooled degree weights for the Chung-Lu proposal
        out_w = np.zeros(n)
        in_w = np.zeros(n)
        for snap in graph:
            out_w += snap.out_degrees()
            in_w += snap.in_degrees()
        self._out_w = out_w + 1e-3
        self._in_w = in_w + 1e-3
        self._edges_per_step = graph.num_temporal_edges / t_len
        self._accept = self._fit_acceptance(graph)
        self.fitted = True
        return self

    def _bin_index(self, attrs: np.ndarray) -> np.ndarray:
        """Per-node bin id: binary median split per dimension, packed.

        With ``F`` attribute dimensions this yields ``2^F`` bins; to keep
        the table small only the first 4 dimensions participate.
        """
        if self._num_attrs == 0:
            return np.zeros(attrs.shape[0], dtype=int)
        use = min(self._num_attrs, 4)
        bits = (attrs[:, :use] > self._medians[:use]).astype(int)
        packed = np.zeros(attrs.shape[0], dtype=int)
        for d in range(use):
            packed |= bits[:, d] << d
        return packed

    def _num_bins(self) -> int:
        return 1 << min(self._num_attrs, 4)

    def _fit_acceptance(self, graph: DynamicAttributedGraph) -> np.ndarray:
        """Observed vs proposal frequency ratio per bin combination."""
        b = self._num_bins()
        observed = np.full((b, b), 1e-6)
        for snap in graph:
            bins = self._bin_index(snap.attributes)
            src, dst = np.nonzero(snap.adjacency)
            np.add.at(observed, (bins[src], bins[dst]), 1.0)
        observed /= observed.sum()
        # proposal distribution over bin pairs under Chung-Lu alone,
        # binning each node by its time-mean attributes
        bins_pool = self._bin_index(self._mean_attrs)
        out_mass = np.zeros(b)
        in_mass = np.zeros(b)
        np.add.at(out_mass, bins_pool, self._out_w)
        np.add.at(in_mass, bins_pool, self._in_w)
        proposal = np.outer(out_mass, in_mass)
        # floor at the same scale as the observed floor so bin pairs that
        # are neither observed nor proposable get *low* acceptance instead
        # of an exploding importance ratio
        proposal = np.maximum(proposal / proposal.sum(), 1e-6)
        ratio = observed / proposal
        return np.minimum(ratio, _MAX_ACCEPT_RATIO)

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

    def _sample_attributes(self, rng: np.random.Generator) -> np.ndarray:
        if self._num_attrs == 0:
            return np.zeros((self._num_nodes, 0))
        rows = rng.integers(0, len(self._attr_pool), size=self._num_nodes)
        return self._attr_pool[rows].copy()

    def _generate_step(
        self, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = self._num_nodes
        attrs = self._sample_attributes(rng)
        bins = self._bin_index(attrs)
        p_out = self._out_w / self._out_w.sum()
        p_in = self._in_w / self._in_w.sum()
        target = int(round(self._edges_per_step))
        n_candidates = max(int(target * self.oversample), 1)
        src = rng.choice(n, size=n_candidates, p=p_out)
        dst = rng.choice(n, size=n_candidates, p=p_in)
        accept_p = self._accept[bins[src], bins[dst]]
        accept_p = accept_p / max(accept_p.max(), 1e-9)
        keep = rng.random(n_candidates) < accept_p
        adj = np.zeros((n, n))
        placed = 0
        for u, v in zip(src[keep], dst[keep]):
            if placed >= target:
                break
            if u != v and adj[u, v] == 0:
                adj[u, v] = 1.0
                placed += 1
        return adj, attrs

    def acceptance_table(self) -> np.ndarray:
        """The fitted (bin, bin) acceptance-weight table (read-only view)."""
        self._require_fitted()
        return self._accept.copy()
