"""Co-evolving dynamic attributed graph simulator.

The generative process combines the ingredients the paper's datasets
exhibit and its model is designed to capture:

1. **Directed heavy-tailed structure** — edges target nodes by
   preferential attachment mixed with community affinity, so in/out
   degree distributions are power-law-ish.
2. **Temporal churn** — each snapshot keeps a fraction of the previous
   snapshot's edges (persistence) and rewires the rest, producing the
   gradual structural drift visible in Figures 4–6.
3. **Attribute/topology co-evolution** — node attributes follow an
   AR(1) drift *plus* a neighbourhood-mean coupling term (connected
   nodes pull each other's attributes together), and edge formation
   probability in turn increases with attribute similarity.  This is
   the co-evolution loop of §III-C's co-author example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder


@dataclass
class CoEvolutionConfig:
    """Parameters of the synthetic co-evolution process.

    Attributes
    ----------
    num_nodes, num_timesteps, num_attributes:
        Size of the generated sequence (paper's N, T, X).
    edges_per_step:
        Target number of directed edges per snapshot.
    num_communities:
        Planted community count (affects clustering / NC).
    persistence:
        Fraction of the previous snapshot's edges retained each step.
    preferential:
        Weight of degree-proportional target choice vs uniform.
    community_bias:
        Probability that a new edge stays inside the source community.
    attribute_coupling:
        Strength of the neighbour-mean pull on attributes (0 = none).
    attribute_drift:
        AR(1) coefficient of attribute self-evolution.
    attribute_noise:
        Std-dev of per-step attribute innovation.
    attribute_center_spread:
        Distance scale between community attribute centers; larger
        values give clearly multimodal marginals (as in real attributed
        graphs), which a single global Gaussian cannot fit.
    attribute_skew:
        Strength of the monotone skewing emission transform
        ``x + skew·(exp(x) − 1)`` applied when a snapshot is observed.
        Real-world attributes (transaction amounts, h-indices, …) are
        right-skewed; 0 disables the transform.
    attribute_trend:
        Per-step drift of the anchor values along a fixed random
        direction — the attribute distribution *evolves over time*
        (growing transaction volumes, shifting topics), which static
        generators cannot track but a recurrent model can.  0 disables.
    homophily:
        How strongly attribute similarity boosts edge probability.
    reciprocity:
        Probability a new edge u->v immediately spawns v->u.
    """

    num_nodes: int = 200
    num_timesteps: int = 10
    num_attributes: int = 2
    edges_per_step: int = 400
    num_communities: int = 4
    persistence: float = 0.6
    preferential: float = 0.7
    community_bias: float = 0.7
    attribute_coupling: float = 0.3
    attribute_drift: float = 0.9
    attribute_noise: float = 0.05
    attribute_center_spread: float = 1.0
    attribute_skew: float = 0.0
    attribute_trend: float = 0.0
    homophily: float = 0.5
    reciprocity: float = 0.1

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent generator settings."""
        if self.num_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if self.num_timesteps < 1:
            raise ValueError("need at least 1 timestep")
        if not 0.0 <= self.persistence <= 1.0:
            raise ValueError("persistence must be in [0, 1]")
        if not 0.0 <= self.community_bias <= 1.0:
            raise ValueError("community_bias must be in [0, 1]")
        if self.edges_per_step < 0:
            raise ValueError("edges_per_step must be non-negative")


def _initial_attributes(
    cfg: CoEvolutionConfig, communities: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Community-dependent Gaussian mixture initial attributes."""
    if cfg.num_attributes == 0:
        return np.zeros((cfg.num_nodes, 0))
    centers = rng.normal(
        0.0,
        cfg.attribute_center_spread,
        size=(cfg.num_communities, cfg.num_attributes),
    )
    x = centers[communities] + rng.normal(
        0.0, 0.25, size=(cfg.num_nodes, cfg.num_attributes)
    )
    return x


def _sample_targets(
    source: int,
    count: int,
    in_deg: np.ndarray,
    communities: np.ndarray,
    attrs: np.ndarray,
    cfg: CoEvolutionConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick ``count`` distinct targets for ``source`` (never itself)."""
    n = in_deg.shape[0]
    # base: preferential attachment mixed with uniform
    weights = cfg.preferential * (in_deg + 1.0) + (1.0 - cfg.preferential)
    # community bias
    same = communities == communities[source]
    comm_factor = np.where(same, cfg.community_bias, 1.0 - cfg.community_bias)
    weights = weights * (comm_factor + 1e-9)
    # homophily on attributes
    if attrs.shape[1] > 0 and cfg.homophily > 0:
        diff = np.linalg.norm(attrs - attrs[source], axis=1)
        sim = np.exp(-diff)
        weights = weights * (1.0 + cfg.homophily * sim)
    weights[source] = 0.0
    total = weights.sum()
    if total <= 0:
        return np.empty(0, dtype=int)
    probs = weights / total
    count = min(count, int((probs > 0).sum()))
    if count <= 0:
        return np.empty(0, dtype=int)
    return rng.choice(n, size=count, replace=False, p=probs)


def generate_co_evolving_graph(
    cfg: CoEvolutionConfig, seed: Optional[int] = None
) -> DynamicAttributedGraph:
    """Simulate a dynamic attributed graph per ``cfg``.

    Returns a :class:`DynamicAttributedGraph` with ``cfg.num_timesteps``
    snapshots over a fixed node set.  Only the previous and the current
    step are dense working arrays; each finished step leaves as edge
    columns.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    n = cfg.num_nodes
    communities = rng.integers(0, cfg.num_communities, size=n)
    attrs = _initial_attributes(cfg, communities, rng)
    # per-node anchors: attributes mean-revert to these, keeping the
    # marginal dispersion stationary instead of collapsing to a point
    anchors = attrs.copy()
    if cfg.num_attributes > 0 and cfg.attribute_trend > 0:
        trend_dir = rng.normal(size=cfg.num_attributes)
        trend_dir /= max(np.linalg.norm(trend_dir), 1e-12)
        trend_step = cfg.attribute_trend * cfg.attribute_center_spread * trend_dir
    else:
        trend_step = np.zeros(cfg.num_attributes)

    adj = np.zeros((n, n))
    builder = TemporalEdgeStoreBuilder(n, cfg.num_attributes)
    for _ in range(cfg.num_timesteps):
        new_adj = np.zeros((n, n))
        # 1. persist a fraction of existing edges
        rows, cols = np.nonzero(adj)
        if rows.size:
            keep = rng.random(rows.size) < cfg.persistence
            new_adj[rows[keep], cols[keep]] = 1.0
        # 2. add fresh edges until the target count
        deficit = max(0, cfg.edges_per_step - int(new_adj.sum()))
        in_deg = new_adj.sum(axis=0)
        # activity: out-degree propensity is heavy-tailed per node
        activity = rng.pareto(2.0, size=n) + 0.1
        activity /= activity.sum()
        sources = rng.choice(n, size=deficit, p=activity)
        src_counts = np.bincount(sources, minlength=n)
        for source in np.nonzero(src_counts)[0]:
            targets = _sample_targets(
                int(source), int(src_counts[source]), in_deg,
                communities, attrs, cfg, rng,
            )
            for tgt in targets:
                new_adj[source, tgt] = 1.0
                in_deg[tgt] += 1
                if rng.random() < cfg.reciprocity:
                    new_adj[tgt, source] = 1.0
        np.fill_diagonal(new_adj, 0.0)
        # 3. co-evolve attributes on the *new* structure
        if cfg.num_attributes > 0:
            anchors = anchors + trend_step
            sym = np.maximum(new_adj, new_adj.T)
            deg = sym.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                nbr_mean = np.where(deg > 0, (sym @ attrs) / np.maximum(deg, 1), attrs)
            attrs = (
                attrs
                + (1.0 - cfg.attribute_drift) * (anchors - attrs)
                + cfg.attribute_coupling * (nbr_mean - attrs)
                + rng.normal(0.0, cfg.attribute_noise, size=attrs.shape)
            )
        # 0/1 with a cleared diagonal: the nonzeros are canonical
        builder.add_step(*np.nonzero(new_adj), _emit(attrs, cfg), canonical=True)
        adj = new_adj
    return builder.build().to_graph()


def _emit(attrs: np.ndarray, cfg: CoEvolutionConfig) -> np.ndarray:
    """Observed attribute values (skewed emission of the latent state)."""
    if cfg.attribute_skew <= 0 or attrs.shape[1] == 0:
        return attrs.copy()
    clipped = np.clip(attrs, -10.0, 10.0)
    return attrs + cfg.attribute_skew * (np.exp(clipped) - 1.0)
