"""TGGAN (Zhang et al., WWW 2021) — truncated temporal walk GAN,
simplified.

TGGAN improves on TagGen by (a) *truncating* temporal walks so that
each walk is short and respects time-validity constraints, and (b)
training a generator/discriminator pair over walk space instead of
sampling+filtering from the data walks directly.

Our re-implementation keeps both ideas at reduced fidelity: the
generator is a learned (start, transition, time-gap) factorized
distribution over truncated walks, updated adversarially — transitions
that the discriminator (an MLP on walk embedding features, trained with
our nn substrate) flags as unrealistic get down-weighted each round.
Walks remain the generation currency, so cost still scales with the
number of temporal edges (the Fig. 9 / Table IV behaviour), but
training is lighter than TagGen's — matching the paper's observation
that TGGAN trains fastest among the walk methods.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autodiff import Tape, functional as F, no_grad
from repro.autodiff.tensor import as_tensor
from repro.baselines.base import GraphGenerator
from repro.baselines.taggen import _with_zero_attrs
from repro.baselines.walks import (
    TemporalWalkSampler,
    Walk,
    merge_walks_into_graph,
)
from repro.graph import DynamicAttributedGraph
from repro.nn import Adam, MLP

_WALK_FEATURES = 5


def _walk_features(walk: Walk, num_nodes: int, num_timesteps: int) -> np.ndarray:
    """Fixed-size embedding of a walk for the discriminator."""
    nodes = np.array([u for u, _ in walk], dtype=np.float64)
    times = np.array([t for _, t in walk], dtype=np.float64)
    return np.array(
        [
            len(walk) / 10.0,
            nodes.mean() / num_nodes,
            nodes.std() / num_nodes,
            times.mean() / max(num_timesteps, 1),
            np.abs(np.diff(times)).mean() if len(times) > 1 else 0.0,
        ]
    )


class TGGAN(GraphGenerator):
    """Truncated temporal walk generator with adversarial reweighting.

    The discriminator only steers ``fit``-time reweighting of the
    bigram generator; it is excluded from the serialized state (a
    loaded instance generates identically without it).
    """

    _STATE_EXCLUDE = ("_discriminator",)

    def __init__(
        self,
        walk_length: int = 4,
        walks_per_edge: float = 3.0,
        adversarial_rounds: int = 3,
        disc_epochs: int = 20,
        time_window: int = 1,
        seed: int = 0,
    ):
        super().__init__(seed)
        self.walk_length = walk_length
        self.walks_per_edge = walks_per_edge
        self.adversarial_rounds = adversarial_rounds
        self.disc_epochs = disc_epochs
        self.time_window = time_window
        self._bigram: Dict[int, Dict[int, float]] = {}
        self._start_probs: Optional[np.ndarray] = None
        self._edges_per_step: List[int] = []
        self._num_nodes = 0
        self._num_timesteps = 0
        self._num_attrs = 0
        self._discriminator: Optional[MLP] = None

    # ------------------------------------------------------------------
    def fit(self, graph: DynamicAttributedGraph) -> "TGGAN":
        """Fit to the observed graph (the :class:`GraphGenerator` protocol)."""
        rng = self._rng(None)
        self._num_nodes = graph.num_nodes
        self._num_timesteps = graph.num_timesteps
        self._num_attrs = graph.num_attributes
        self._edges_per_step = graph.store.edges_per_step().tolist()
        sampler = TemporalWalkSampler(
            graph.store, time_window=self.time_window, seed=self.seed
        )
        n_walks = int(self.walks_per_edge * max(graph.store.num_edges, 1))
        real_walks = sampler.sample_walks(n_walks, self.walk_length)
        self._init_generator(real_walks)
        self._discriminator = MLP(
            [_WALK_FEATURES, 16, 1], activation="relu", rng=rng
        )
        optimizer = Adam(self._discriminator.parameters(), lr=1e-2)
        # adversarial rounds: train D on real-vs-fake, reweight G
        for _ in range(self.adversarial_rounds):
            fake_walks = [
                self._sample_walk(rng)
                for _ in range(max(len(real_walks) // 2, 10))
            ]
            fake_walks = [w for w in fake_walks if len(w) >= 2]
            if not fake_walks or not real_walks:
                break
            self._train_discriminator(real_walks, fake_walks, optimizer)
            self._reweight_generator(fake_walks)
        self.fitted = True
        return self

    def _init_generator(self, walks: List[Walk]) -> None:
        counts: Dict[int, Counter] = defaultdict(Counter)
        start_counts = np.ones(self._num_nodes)
        for walk in walks:
            start_counts[walk[0][0]] += 1
            for (u, _), (v, _) in zip(walk, walk[1:]):
                counts[u][v] += 1
        self._bigram = {
            u: {v: c / sum(ctr.values()) for v, c in ctr.items()}
            for u, ctr in counts.items()
        }
        self._start_probs = start_counts / start_counts.sum()

    def _train_discriminator(
        self, real: List[Walk], fake: List[Walk], optimizer: Adam
    ) -> None:
        xr = np.stack(
            [_walk_features(w, self._num_nodes, self._num_timesteps) for w in real]
        )
        xf = np.stack(
            [_walk_features(w, self._num_nodes, self._num_timesteps) for w in fake]
        )
        x = as_tensor(np.concatenate([xr, xf]))
        y = np.concatenate([np.ones(len(xr)), np.zeros(len(xf))])
        for _ in range(self.disc_epochs):
            with Tape():
                logits = self._discriminator(x).reshape(len(y))
                p = F.clip(F.sigmoid(logits), 1e-7, 1 - 1e-7)
                loss = -(y * F.log(p) + (1 - y) * F.log(1 - p)).mean()
                optimizer.zero_grad()
                loss.backward()
            optimizer.step()

    def _reweight_generator(self, fake_walks: List[Walk]) -> None:
        """Down-weight transitions of walks the discriminator rejects."""
        with no_grad():
            feats = np.stack(
                [
                    _walk_features(w, self._num_nodes, self._num_timesteps)
                    for w in fake_walks
                ]
            )
            logits = self._discriminator(as_tensor(feats)).data.reshape(-1)
        scores = 1.0 / (1.0 + np.exp(-logits))
        for walk, score in zip(fake_walks, scores):
            if score >= 0.5:
                continue  # fooled the discriminator — keep
            for (u, _), (v, _) in zip(walk, walk[1:]):
                if u in self._bigram and v in self._bigram[u]:
                    self._bigram[u][v] *= 0.8
        # renormalize
        for u, ctr in self._bigram.items():
            total = sum(ctr.values())
            if total > 0:
                self._bigram[u] = {v: p / total for v, p in ctr.items()}

    # ------------------------------------------------------------------
    def _sample_walk(self, rng: np.random.Generator,
                     num_timesteps: Optional[int] = None) -> Walk:
        horizon = num_timesteps or self._num_timesteps
        u = int(rng.choice(self._num_nodes, p=self._start_probs))
        t = int(rng.integers(horizon))
        walk: Walk = [(u, t)]
        for _ in range(self.walk_length - 1):
            nxt = self._bigram.get(u)
            if not nxt:
                break
            nodes = list(nxt.keys())
            probs = np.array(list(nxt.values()))
            total = probs.sum()
            if total <= 0:
                break
            u = int(rng.choice(nodes, p=probs / total))
            # time-validity: walks move forward within the truncation window
            t = int(np.clip(t + rng.integers(0, 2), 0, horizon - 1))
            walk.append((u, t))
        return walk

    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate ``num_timesteps`` snapshots from the fitted model."""
        self._require_fitted()
        rng = self._rng(seed)
        total_edges = sum(
            self._edges_per_step[min(t, len(self._edges_per_step) - 1)]
            for t in range(num_timesteps)
        )
        n_walks = int(self.walks_per_edge * max(total_edges, 1))
        walks = []
        for _ in range(n_walks):
            w = self._sample_walk(rng, num_timesteps)
            if len(w) >= 2:
                walks.append(w)
        graph = merge_walks_into_graph(
            walks, self._num_nodes, num_timesteps, self._edges_per_step, rng
        )
        return _with_zero_attrs(graph, self._num_attrs)
