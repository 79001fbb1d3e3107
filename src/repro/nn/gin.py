"""GIN message-passing layer on dense (directed) adjacency matrices.

This is the unit the bi-flow encoder (paper Eq. 5) composes twice per
hop — once over in-neighbourhoods, once over out-neighbourhoods.  The
layer itself is direction-agnostic: callers pass the adjacency already
oriented so that row ``i`` of ``adj @ h`` aggregates the desired
neighbourhood of node ``i``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import Tensor, apply
from repro.nn.module import Module, Parameter
from repro.nn.linear import MLP


class GINLayer(Module):
    """Graph Isomorphism Network layer (Xu et al., 2019).

    .. math::
        h_i' = f\\big((1 + \\epsilon) h_i + \\sum_{j \\in N(i)} h_j\\big)

    ``epsilon`` is learnable (initialized to 0) and ``f`` is an MLP.

    Parameters
    ----------
    in_features, out_features:
        Feature widths.
    hidden:
        Hidden width of the internal MLP; defaults to ``out_features``.
    mlp_layers:
        Number of MLP layers (the ``Lm`` of the paper's complexity
        analysis, §III-G).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden: Optional[int] = None,
        mlp_layers: int = 2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        hidden = hidden or out_features
        sizes = [in_features] + [hidden] * (mlp_layers - 1) + [out_features]
        self.mlp = MLP(sizes, activation="relu", rng=rng)
        self.epsilon = Parameter(np.zeros(1))

    def forward(self, h: Tensor, adj: np.ndarray) -> Tensor:
        """Aggregate over the neighbourhood encoded by ``adj``.

        ``adj`` is a constant ``(N, N)`` 0/1 matrix: ``adj[i, j] = 1``
        means node ``j``'s state contributes to node ``i``'s update.
        """
        agg = apply("matmul", (np.asarray(adj, dtype=np.float64), h))
        return self.mlp((1.0 + self.epsilon) * h + agg)
