"""Bi-flow graph encoder ε (paper Eq. 5–7, Fig. 2).

Each hop runs two GIN flows — one over in-neighbourhoods, one over
out-neighbourhoods — and fuses them with a shared aggregation MLP
``f_agg``.  Hop-level states are pooled with a jump connection
``f_pool`` into the final node representation ε(v).

Input features per node are the snapshot attributes concatenated with
normalized in/out degrees, so the encoder sees both structural and
attribute information even when F = 0.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autodiff import Tensor, functional as F
from repro.autodiff.tensor import as_tensor
from repro.nn import GINLayer, Linear, MLP, Module


class BiFlowEncoder(Module):
    """Encode a snapshot ``G_t(A_t, X_t)`` into node embeddings ε(v).

    Takes the step as arrays: a dense ``(N, N)`` 0/1 adjacency and the
    ``(N, F)`` attributes.

    Parameters
    ----------
    num_attributes:
        F — width of the snapshot attribute matrix.
    hidden_dim:
        Width of the per-hop node states.
    encode_dim:
        d_ε — output width after jump pooling.
    num_layers:
        L — number of bi-flow hops.
    mlp_layers:
        L_m — MLP depth inside each GIN flow.
    bidirectional:
        Ablation switch; ``False`` uses only the out-flow direction and
        feeds the aggregator a duplicated state, keeping shapes equal.
    """

    def __init__(
        self,
        num_attributes: int,
        hidden_dim: int,
        encode_dim: int,
        num_layers: int = 2,
        mlp_layers: int = 2,
        bidirectional: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_attributes = num_attributes
        self.hidden_dim = hidden_dim
        self.encode_dim = encode_dim
        self.num_layers = num_layers
        self.bidirectional = bidirectional
        in_features = num_attributes + 2  # attributes + in/out degree features
        self.input_proj = Linear(in_features, hidden_dim, rng=rng)
        self.in_flows = [
            GINLayer(hidden_dim, hidden_dim, mlp_layers=mlp_layers, rng=rng)
            for _ in range(num_layers)
        ]
        self.out_flows = [
            GINLayer(hidden_dim, hidden_dim, mlp_layers=mlp_layers, rng=rng)
            for _ in range(num_layers)
        ]
        # f_agg shared across layers (paper: "shares weights across layers")
        self.aggregator = MLP([2 * hidden_dim, hidden_dim], rng=rng)
        # f_pool jump connection over the L hop-level states (Eq. 7)
        self.pool = MLP([num_layers * hidden_dim, encode_dim], rng=rng)

    def initial_features(
        self, adjacency: np.ndarray, attributes: np.ndarray
    ) -> np.ndarray:
        """Raw node features: [X || in_deg/N || out_deg/N].

        Degrees are sums of 0/1 entries, so they are exact integers.
        """
        n = adjacency.shape[0]
        in_deg = adjacency.sum(axis=0)[:, None] / max(n - 1, 1)
        out_deg = adjacency.sum(axis=1)[:, None] / max(n - 1, 1)
        return np.concatenate([attributes, in_deg, out_deg], axis=1)

    def forward(self, adjacency: np.ndarray, attributes: np.ndarray) -> Tensor:
        """Return ε(G_t) ∈ R^{N×d_ε}."""
        # For node i: in-neighbours j have edge j->i, i.e. adj[j, i] = 1,
        # so aggregating them needs adj.T; out-neighbours need adj itself.
        adj_in = adjacency.T
        adj_out = adjacency
        feats = self.initial_features(adjacency, attributes)
        h = F.tanh(self.input_proj(as_tensor(feats)))
        hop_states: List[Tensor] = []
        for layer in range(self.num_layers):
            out_h = self.out_flows[layer](h, adj_out)
            if self.bidirectional:
                in_h = self.in_flows[layer](h, adj_in)
            else:
                in_h = out_h
            h = self.aggregator(F.concat([in_h, out_h], axis=1))  # Eq. 6
            hop_states.append(h)
        return self.pool(F.concat(hop_states, axis=1))  # Eq. 7
