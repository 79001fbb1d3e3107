"""CoEvoGNN-style dynamic attributed graph forecaster.

Follows the co-evolution modelling idea of Wang et al. (TKDE 2021):
node states are propagated through a GNN over each snapshot, evolved
with a GRU across time, and decoded by two heads — a bilinear link
scorer for next-step topology and an MLP for next-step attributes.
Trained to forecast snapshot ``t+1`` from the sequence prefix up to
``t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tape, Tensor, functional as F, no_grad
from repro.autodiff.tensor import as_tensor
from repro.graph import DynamicAttributedGraph, GraphSnapshot
from repro.nn import Adam, GINLayer, GRUCell, Linear, MLP, Module, Parameter
from repro.nn import init as nn_init


@dataclass
class CoEvoGNNConfig:
    """Hyperparameters of the forecaster."""

    num_nodes: int
    num_attributes: int
    hidden_dim: int = 24
    epochs: int = 40
    learning_rate: float = 5e-3
    negative_ratio: int = 1
    grad_clip: float = 5.0
    seed: int = 0


class CoEvoGNN(Module):
    """Forecast the next snapshot (links + attributes) of a sequence."""

    def __init__(self, config: CoEvoGNNConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.hidden_dim
        self.input_proj = Linear(config.num_attributes + 2, d, rng=rng)
        self.gnn = GINLayer(d, d, rng=rng)
        self.gru = GRUCell(d, d, rng=rng)
        self.link_bilinear = Parameter(nn_init.xavier_uniform(rng, d, d))
        # learned edge-persistence term: real dynamic graphs repeat a
        # large fraction of edges between consecutive snapshots, and the
        # co-evolution model conditions on the previous structure
        self.repeat_weight = Parameter(np.array([1.0]))
        self.link_bias = Parameter(np.array([-2.0]))
        self.attr_head = MLP([d, d, max(config.num_attributes, 1)], rng=rng)
        self._train_rng = np.random.default_rng(config.seed + 1)

    # ------------------------------------------------------------------
    def _snapshot_features(self, snap: GraphSnapshot) -> np.ndarray:
        n = snap.num_nodes
        in_deg = snap.in_degrees()[:, None] / max(n - 1, 1)
        out_deg = snap.out_degrees()[:, None] / max(n - 1, 1)
        return np.concatenate([snap.attributes, in_deg, out_deg], axis=1)

    def encode_sequence(self, snapshots: Sequence[GraphSnapshot]) -> Tensor:
        """Run the GNN+GRU over a prefix; returns final hidden state (N, d)."""
        n = self.config.num_nodes
        h = Tensor(np.zeros((n, self.config.hidden_dim)))
        for snap in snapshots:
            h = self._encode_step(h, snap)
        return h

    def link_logits(
        self, h: Tensor, pairs: np.ndarray, prev_adj: np.ndarray
    ) -> Tensor:
        """Link scores for (src, dst) pairs: bilinear state affinity plus
        a learned persistence boost for edges present in ``prev_adj``."""
        src = h[pairs[:, 0]]
        dst = h[pairs[:, 1]]
        affinity = ((src @ self.link_bilinear) * dst).sum(axis=1)
        repeated = prev_adj[pairs[:, 0], pairs[:, 1]]
        return affinity + self.repeat_weight * repeated + self.link_bias

    def predict_attributes(self, h: Tensor) -> Tensor:
        """Next-step attribute matrix from hidden states ``h``."""
        return self.attr_head(h)

    # ------------------------------------------------------------------
    def fit(self, sequences: Sequence[DynamicAttributedGraph]) -> List[float]:
        """Train on one or more sequences (extra ones = augmentation).

        Each sequence contributes every (prefix -> next snapshot)
        forecasting task.  Hidden states are computed incrementally in a
        single sequential pass per epoch (the prefix ``t`` encoding is the
        continuation of the prefix ``t-1`` encoding), so one epoch costs
        O(T) snapshot encodings rather than O(T^2).  Each epoch records
        onto a fresh :class:`~repro.autodiff.tape.Tape`.  Returns the
        loss history.
        """
        cfg = self.config
        optimizer = Adam(self.parameters(), lr=cfg.learning_rate)
        history: List[float] = []
        for _ in range(cfg.epochs):
            with Tape():
                total_loss = self._epoch_loss(sequences)
                optimizer.zero_grad()
                total_loss.backward()
            if cfg.grad_clip:
                optimizer.clip_grad_norm(cfg.grad_clip)
            optimizer.step()
            history.append(float(total_loss.data))
        return history

    def _epoch_loss(self, sequences: Sequence[DynamicAttributedGraph]) -> Tensor:
        """Mean forecast loss over every (prefix -> next snapshot) task."""
        cfg = self.config
        total_loss: Optional[Tensor] = None
        count = 0
        for seq in sequences:
            if seq.num_timesteps < 2:
                continue
            h = Tensor(np.zeros((cfg.num_nodes, cfg.hidden_dim)))
            for t in range(1, seq.num_timesteps):
                h = self._encode_step(h, seq.snapshots[t - 1])
                loss = self._forecast_loss(h, seq, t)
                total_loss = loss if total_loss is None else total_loss + loss
                count += 1
        if count == 0:
            raise ValueError("no sequence long enough to forecast")
        return total_loss / count

    def _encode_step(self, h: Tensor, snap: GraphSnapshot) -> Tensor:
        """One GNN+GRU recurrence step: fold ``snap`` into state ``h``."""
        x = F.tanh(self.input_proj(as_tensor(self._snapshot_features(snap))))
        msg = self.gnn(x, snap.undirected_adjacency())
        return self.gru(msg, h)

    def _forecast_loss(
        self, h: Tensor, seq: DynamicAttributedGraph, t: int
    ) -> Tensor:
        cfg = self.config
        target = seq[t]
        # link loss with negative sampling
        pos = np.array(target.edges(), dtype=int)
        rng = self._train_rng
        n = cfg.num_nodes
        n_neg = max(len(pos), 1) * cfg.negative_ratio
        neg = rng.integers(0, n, size=(n_neg, 2))
        neg = neg[neg[:, 0] != neg[:, 1]]
        neg = neg[target.adjacency[neg[:, 0], neg[:, 1]] == 0]
        if len(pos) == 0:
            link_loss = as_tensor(0.0)
        else:
            pairs = np.concatenate([pos, neg]) if len(neg) else pos
            labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
            logits = self.link_logits(h, pairs, seq[t - 1].adjacency)
            p = F.clip(F.sigmoid(logits), 1e-7, 1 - 1e-7)
            link_loss = -(labels * F.log(p) + (1 - labels) * F.log(1 - p)).mean()
        # attribute loss
        if cfg.num_attributes > 0:
            x_pred = self.predict_attributes(h)
            attr_loss = ((x_pred - target.attributes) ** 2).mean()
        else:
            attr_loss = as_tensor(0.0)
        return link_loss + attr_loss

    # ------------------------------------------------------------------
    def predict_snapshot(
        self, prefix: Sequence[GraphSnapshot], edge_budget: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Forecast (adjacency, attributes) after ``prefix``.

        Topology keeps the ``edge_budget`` highest-scoring pairs.
        """
        with no_grad():
            h = self.encode_sequence(prefix)
            n = self.config.num_nodes
            all_pairs = np.array(
                [(i, j) for i in range(n) for j in range(n) if i != j], dtype=int
            )
            logits = self.link_logits(
                h, all_pairs, prefix[-1].adjacency
            ).data
            adj = np.zeros((n, n))
            if edge_budget > 0:
                top = np.argsort(-logits)[:edge_budget]
                for idx in top:
                    i, j = all_pairs[idx]
                    adj[i, j] = 1.0
            attrs = (
                self.predict_attributes(h).data.copy()
                if self.config.num_attributes > 0
                else np.zeros((n, 0))
            )
        return adj, attrs
