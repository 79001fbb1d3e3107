"""TagGen (Zhou et al., KDD 2020) — temporal-random-walk generator.

Pipeline, matching the original's three stages:

1. **Walk sampling** — extract many temporal random walks that jointly
   capture structural and temporal context (via
   :class:`~repro.baselines.walks.TemporalWalkSampler`).
2. **Discrimination** — score candidate *generated* walks with a
   plausibility model and keep only walks passing a threshold.  The
   original trains a transformer discriminator; we use a smoothed
   bigram transition likelihood fitted on the real walks, which plays
   the same gate-keeping role at matched asymptotic cost (every
   candidate walk must be scored — this stage is exactly why TagGen's
   generation is slow, the property Fig. 9 measures).
3. **Merging** — assemble accepted walks into per-timestep snapshots
   matching the observed densities.

TagGen is structure-only: generated attributes are zero vectors.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.base import GraphGenerator
from repro.baselines.walks import (
    TemporalWalkSampler,
    Walk,
    merge_walks_into_graph,
)
from repro.graph import DynamicAttributedGraph


class TagGen(GraphGenerator):
    """Temporal random walk + discriminator + merge generator.

    The walk sampler and the real-walk sample only feed ``fit``-time
    model estimation; generation runs off the fitted bigram scorer and
    start distribution alone, so both are excluded from the serialized
    state (a loaded instance generates identically without them).
    """

    _STATE_EXCLUDE = ("_sampler", "_real_walks")

    def __init__(
        self,
        walk_length: int = 8,
        walks_per_edge: float = 4.0,
        time_window: int = 2,
        acceptance_quantile: float = 0.3,
        seed: int = 0,
    ):
        super().__init__(seed)
        self.walk_length = walk_length
        self.walks_per_edge = walks_per_edge
        self.time_window = time_window
        self.acceptance_quantile = acceptance_quantile
        self._sampler: Optional[TemporalWalkSampler] = None
        self._bigram: Dict[int, Dict[int, float]] = {}
        self._start_probs: Optional[np.ndarray] = None
        self._edges_per_step: List[int] = []
        self._num_nodes = 0
        self._num_timesteps = 0
        self._num_attrs = 0

    # ------------------------------------------------------------------
    def fit(self, graph: DynamicAttributedGraph) -> "TagGen":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        self._num_nodes = graph.num_nodes
        self._num_timesteps = graph.num_timesteps
        self._num_attrs = graph.num_attributes
        self._edges_per_step = graph.store.edges_per_step().tolist()
        self._sampler = TemporalWalkSampler(
            graph.store, time_window=self.time_window, seed=self.seed
        )
        n_walks = int(self.walks_per_edge * max(graph.store.num_edges, 1))
        real_walks = self._sampler.sample_walks(n_walks, self.walk_length)
        # smoothed bigram transition model = the discriminator's scorer
        counts: Dict[int, Counter] = defaultdict(Counter)
        start_counts = np.ones(self._num_nodes)
        for walk in real_walks:
            start_counts[walk[0][0]] += 1
            for (u, _), (v, _) in zip(walk, walk[1:]):
                counts[u][v] += 1
        self._bigram = {
            u: {v: c / sum(ctr.values()) for v, c in ctr.items()}
            for u, ctr in counts.items()
        }
        self._start_probs = start_counts / start_counts.sum()
        self._real_walks = real_walks
        self.fitted = True
        return self

    # ------------------------------------------------------------------
    def _walk_score(self, walk: Walk) -> float:
        """Mean log transition likelihood (the discriminator score)."""
        if len(walk) < 2:
            return -np.inf
        logp = 0.0
        for (u, _), (v, _) in zip(walk, walk[1:]):
            p = self._bigram.get(u, {}).get(v, 1e-6)
            logp += np.log(p)
        return logp / (len(walk) - 1)

    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate ``num_timesteps`` snapshots from the fitted model."""
        self._require_fitted()
        rng = self._rng(seed)
        total_edges = sum(
            self._edges_per_step[min(t, len(self._edges_per_step) - 1)]
            for t in range(num_timesteps)
        )
        n_candidates = int(self.walks_per_edge * max(total_edges, 1))
        # stage 1: sample candidate walks from the fitted walk space
        candidates: List[Walk] = []
        for _ in range(n_candidates):
            walk = self._sample_synthetic_walk(rng, num_timesteps)
            if len(walk) >= 2:
                candidates.append(walk)
        # stage 2: discriminate — keep the top (1 - q) quantile
        scores = np.array([self._walk_score(w) for w in candidates])
        if len(scores):
            threshold = np.quantile(scores, self.acceptance_quantile)
            accepted = [w for w, s in zip(candidates, scores) if s >= threshold]
        else:
            accepted = []
        # stage 3: merge into snapshots
        graph = merge_walks_into_graph(
            accepted, self._num_nodes, num_timesteps,
            self._edges_per_step, rng,
        )
        return _with_zero_attrs(graph, self._num_attrs)

    def _sample_synthetic_walk(
        self, rng: np.random.Generator, num_timesteps: int
    ) -> Walk:
        """Sample a walk from the bigram model with temporal jitter."""
        u = int(rng.choice(self._num_nodes, p=self._start_probs))
        t = int(rng.integers(num_timesteps))
        walk: Walk = [(u, t)]
        for _ in range(self.walk_length - 1):
            nxt = self._bigram.get(u)
            if not nxt:
                break
            nodes = list(nxt.keys())
            probs = np.array(list(nxt.values()))
            probs = probs / probs.sum()
            u = int(rng.choice(nodes, p=probs))
            t = int(np.clip(t + rng.integers(-1, 2), 0, num_timesteps - 1))
            walk.append((u, t))
        return walk


def _with_zero_attrs(
    graph: DynamicAttributedGraph, num_attrs: int
) -> DynamicAttributedGraph:
    """Attach zero attribute matrices (structure-only baselines).

    Store-backed graphs keep their edge columns zero-copy; only the
    O(N·F·T) zero attribute block is allocated.
    """
    if num_attrs == 0:
        return graph
    import numpy as np

    zeros = np.zeros((graph.num_timesteps, graph.num_nodes, num_attrs))
    return DynamicAttributedGraph.from_store(
        graph.store.with_attributes(zeros)
    )
