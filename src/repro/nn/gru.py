"""GRU cell — substrate for VRDAG's recurrence state updater (§III-D)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import Tensor, apply
from repro.nn.module import Module, Parameter
from repro.nn import init


class GRUCell(Module):
    """Single-step gated recurrent unit.

    Operates row-wise, so feeding an ``(N, input_size)`` batch of node
    features and an ``(N, hidden_size)`` batch of node states performs
    the per-node hidden-state update of Algorithm 1 line 7 in one call.

    Update equations (standard GRU):

    .. math::
        r = \\sigma(x W_{xr} + h W_{hr} + b_r) \\\\
        z = \\sigma(x W_{xz} + h W_{hz} + b_z) \\\\
        n = \\tanh(x W_{xn} + (r \\odot h) W_{hn} + b_n) \\\\
        h' = (1 - z) \\odot n + z \\odot h
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_xr = Parameter(init.xavier_uniform(rng, input_size, hidden_size))
        self.w_hr = Parameter(init.xavier_uniform(rng, hidden_size, hidden_size))
        self.b_r = Parameter(np.zeros(hidden_size))
        self.w_xz = Parameter(init.xavier_uniform(rng, input_size, hidden_size))
        self.w_hz = Parameter(init.xavier_uniform(rng, hidden_size, hidden_size))
        self.b_z = Parameter(np.zeros(hidden_size))
        self.w_xn = Parameter(init.xavier_uniform(rng, input_size, hidden_size))
        self.w_hn = Parameter(init.xavier_uniform(rng, hidden_size, hidden_size))
        self.b_n = Parameter(np.zeros(hidden_size))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One GRU step: returns the next hidden state ``(N, H)``.

        The full step is one fused ``gru_cell`` op (three gates +
        convex combination, one VJP kernel).
        """
        return apply(
            "gru_cell",
            (
                x, h,
                self.w_xr, self.w_hr, self.b_r,
                self.w_xz, self.w_hz, self.b_z,
                self.w_xn, self.w_hn, self.b_n,
            ),
        )
