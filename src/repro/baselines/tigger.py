"""TIGGER (Gupta et al., AAAI 2022) — scalable RNN temporal-walk model.

TIGGER learns an autoregressive model over temporal interaction walks:
an RNN predicts the next node of a walk and a temporal point process
predicts the inter-event time; generation samples walks from the RNN
and merges them into an edge stream.  It is the fastest walk-based
baseline (pre-trained RNN sampling beats sample-discriminate-merge) but
still pays per-edge walk-sampling cost — the crossover the paper's
Table IV exhibits against VRDAG's one-shot decoding.

Our re-implementation trains a GRU over node-embedding sequences with a
softmax output over the node vocabulary (exact next-node likelihood)
and a geometric time-gap model, using the numpy nn substrate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autodiff import Tape, Tensor, functional as F, no_grad
from repro.baselines.base import GraphGenerator
from repro.baselines.taggen import _with_zero_attrs
from repro.baselines.walks import (
    TemporalWalkSampler,
    Walk,
    merge_walks_into_graph,
)
from repro.graph import DynamicAttributedGraph
from repro.nn import Adam, GRUCell, Linear, Module, Parameter
from repro.nn import init as nn_init


class _WalkRNN(Module):
    """GRU language model over node sequences."""

    def __init__(self, num_nodes: int, embed_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.num_nodes = num_nodes
        self.embedding = Parameter(
            nn_init.normal(rng, num_nodes, embed_dim, std=0.1)
        )
        self.gru = GRUCell(embed_dim, hidden_dim, rng=rng)
        self.out = Linear(hidden_dim, num_nodes, rng=rng)
        self.hidden_dim = hidden_dim

    def step(self, nodes: np.ndarray, h: Tensor) -> Tuple[Tensor, Tensor]:
        """One RNN step over a batch of current nodes; returns (logits, h)."""
        emb = self.embedding[nodes]  # scatter-add VJP into the Parameter
        h_new = self.gru(emb, h)
        return self.out(h_new), h_new

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_dim)))


class TIGGER(GraphGenerator):
    """RNN temporal-walk generator."""

    _STATE_EXCLUDE = ("_rnn",)

    def __init__(
        self,
        walk_length: int = 6,
        walks_per_edge: float = 2.0,
        embed_dim: int = 16,
        hidden_dim: int = 32,
        epochs: int = 10,
        batch_size: int = 64,
        learning_rate: float = 1e-2,
        time_window: int = 2,
        seed: int = 0,
    ):
        super().__init__(seed)
        self.walk_length = walk_length
        self.walks_per_edge = walks_per_edge
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.time_window = time_window
        self._rnn: Optional[_WalkRNN] = None
        self._start_probs: Optional[np.ndarray] = None
        self._gap_p: float = 0.5  # geometric time-gap parameter
        self._edges_per_step: List[int] = []
        self._num_nodes = 0
        self._num_timesteps = 0
        self._num_attrs = 0

    # ------------------------------------------------------------------
    def fit(self, graph: DynamicAttributedGraph) -> "TIGGER":
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
        walks = sampler.sample_walks(n_walks, self.walk_length)
        if not walks:
            raise ValueError("no temporal walks could be sampled from the graph")
        # start distribution and time-gap statistics
        start_counts = np.ones(self._num_nodes)
        gaps: List[int] = []
        for walk in walks:
            start_counts[walk[0][0]] += 1
            for (_, ta), (_, tb) in zip(walk, walk[1:]):
                gaps.append(abs(tb - ta))
        self._start_probs = start_counts / start_counts.sum()
        mean_gap = float(np.mean(gaps)) if gaps else 0.5
        self._gap_p = 1.0 / (1.0 + mean_gap)  # geometric MLE on gaps >= 0
        # train the walk RNN with teacher forcing
        self._rnn = _WalkRNN(
            self._num_nodes, self.embed_dim, self.hidden_dim, rng
        )
        optimizer = Adam(self._rnn.parameters(), lr=self.learning_rate)
        sequences = [
            np.array([u for u, _ in w], dtype=int)
            for w in walks
            if len(w) >= 2
        ]
        for _ in range(self.epochs):
            rng.shuffle(sequences)
            for lo in range(0, len(sequences), self.batch_size):
                batch = sequences[lo: lo + self.batch_size]
                # one fresh tape per batch: the walk RNN unrolls a new
                # graph for every batch, so batches are the natural
                # tape granularity here (epochs are for whole-sequence
                # losses like the VRDAG trainer's)
                with Tape():
                    loss = self._batch_loss(batch)
                    if loss is None:
                        continue
                    optimizer.zero_grad()
                    loss.backward()
                optimizer.step()
        self.fitted = True
        return self

    def _batch_loss(self, batch: List[np.ndarray]):
        """Mean next-node cross-entropy over a batch of walks."""
        max_len = max(len(s) for s in batch)
        if max_len < 2:
            return None
        h = self._rnn.initial_state(len(batch))
        total = None
        count = 0
        for pos in range(max_len - 1):
            current = np.array(
                [s[pos] if pos < len(s) else 0 for s in batch], dtype=int
            )
            target = np.array(
                [s[pos + 1] if pos + 1 < len(s) else -1 for s in batch], dtype=int
            )
            valid = target >= 0
            logits, h = self._rnn.step(current, h)
            logp = F.log_softmax(logits, axis=1)
            safe_target = np.where(valid, target, 0)
            picked = logp[np.arange(len(batch)), safe_target]
            masked = picked * valid.astype(np.float64)
            step_loss = -masked.sum() / max(valid.sum(), 1)
            total = step_loss if total is None else total + step_loss
            count += 1
        return total / count if count else None

    # ------------------------------------------------------------------
    def get_state(self):
        """Reflective state plus the walk RNN's weights."""
        state = super().get_state()
        if self._rnn is not None:
            state["__rnn__"] = self._rnn.state_dict()
        return state

    def set_state(self, state) -> None:
        """Restore state, rebuilding the walk RNN from its weights."""
        state = dict(state)
        rnn = state.pop("__rnn__", None)
        super().set_state(state)
        if rnn is None:
            self._rnn = None
        else:
            self._rnn = _WalkRNN(
                self._num_nodes, self.embed_dim, self.hidden_dim,
                np.random.default_rng(0),
            )
            self._rnn.load_state_dict(rnn)

    # ------------------------------------------------------------------
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
        walks: List[Walk] = []
        batch = 128
        with no_grad():
            remaining = n_walks
            while remaining > 0:
                size = min(batch, remaining)
                walks.extend(self._sample_walk_batch(size, num_timesteps, rng))
                remaining -= size
        graph = merge_walks_into_graph(
            walks, self._num_nodes, num_timesteps, self._edges_per_step, rng
        )
        return _with_zero_attrs(graph, self._num_attrs)

    def _sample_walk_batch(
        self, size: int, num_timesteps: int, rng: np.random.Generator
    ) -> List[Walk]:
        nodes = rng.choice(self._num_nodes, size=size, p=self._start_probs)
        times = rng.integers(0, num_timesteps, size=size)
        walks: List[Walk] = [[(int(u), int(t))] for u, t in zip(nodes, times)]
        h = self._rnn.initial_state(size)
        current = nodes.astype(int)
        for _ in range(self.walk_length - 1):
            logits, h = self._rnn.step(current, h)
            probs = F.softmax(logits, axis=1).data
            probs = probs / probs.sum(axis=1, keepdims=True)
            nxt = np.array(
                [rng.choice(self._num_nodes, p=probs[i]) for i in range(size)]
            )
            gaps = rng.geometric(self._gap_p, size=size) - 1
            times = np.clip(times + gaps, 0, num_timesteps - 1)
            for i in range(size):
                walks[i].append((int(nxt[i]), int(times[i])))
            current = nxt
        return walks
