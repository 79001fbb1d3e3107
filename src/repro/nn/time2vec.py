"""Time2Vec embedding (Kazemi et al., 2019) — paper Eq. 13.

Maps a scalar timestep ``t`` to a ``d_T``-dimensional vector whose first
coordinate is a learnable linear trend and whose remaining coordinates
are learnable sinusoids, letting the recurrence capture both periodic
and non-periodic temporal patterns.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import Tensor, apply, functional as F
from repro.nn.module import Module, Parameter


class Time2Vec(Module):
    """Learnable time representation ``f_T(t) ∈ R^{d_T}``."""

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if dim < 1:
            raise ValueError("Time2Vec dimension must be >= 1")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.w = Parameter(rng.normal(0.0, 1.0, size=dim))
        self.phi = Parameter(rng.normal(0.0, 1.0, size=dim))

    def forward(self, t: float) -> Tensor:
        """Embed scalar time ``t``; returns a ``(dim,)`` tensor."""
        raw = self.w * float(t) + self.phi
        if self.dim == 1:
            return raw
        periodic = apply("sin", (raw[1:],))
        return F.concat([raw[0:1], periodic], axis=0)
