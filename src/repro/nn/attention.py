"""Graph attention layer (Velickovic et al., 2018).

Used by VRDAG's attribute decoder (paper Eq. 12) to run one round of
attentive message passing on the freshly generated adjacency before
decoding node attributes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import Tensor, apply
from repro.nn.module import Module, Parameter
from repro.nn import init
from repro.nn.linear import Linear


class GATLayer(Module):
    """Single-head dense graph attention.

    .. math::
        e_{ij} = \\mathrm{LeakyReLU}(a_s^\\top W h_i + a_d^\\top W h_j) \\\\
        \\alpha_{ij} = \\mathrm{softmax}_{j \\in N(i) \\cup \\{i\\}}(e_{ij}) \\\\
        h_i' = \\sigma\\big(\\sum_j \\alpha_{ij} W h_j\\big)

    Self-loops are always included so isolated nodes still produce a
    well-defined output (softmax over an empty neighbourhood would be
    degenerate otherwise).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.proj = Linear(in_features, out_features, bias=False, rng=rng)
        self.attn_src = Parameter(init.xavier_uniform(rng, out_features, 1))
        self.attn_dst = Parameter(init.xavier_uniform(rng, out_features, 1))
        self.negative_slope = negative_slope

    def forward(self, h: Tensor, adj: np.ndarray) -> Tensor:
        """Attend over ``adj`` (constant 0/1 matrix, row i = neighbours of i).

        Everything after the input projection — scores, masked
        softmax, renormalization, aggregation, ELU — is one fused
        ``gat_attention`` op.
        """
        wh = self.proj(h)                        # (N, d)
        mask = np.asarray(adj, dtype=np.float64).copy()
        np.fill_diagonal(mask, 1.0)              # ensure self-loops
        return apply(
            "gat_attention",
            (wh, self.attn_src, self.attn_dst),
            mask=mask,
            negative_slope=self.negative_slope,
        )
