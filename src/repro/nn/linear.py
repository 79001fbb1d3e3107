"""Dense layers: :class:`Linear` and :class:`MLP`."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.autodiff import Tensor, apply, functional as F
from repro.nn.module import Module, Parameter
from repro.nn import init

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": F.relu,
    "leaky_relu": F.leaky_relu,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "elu": F.elu,
    "softplus": F.softplus,
    "identity": lambda x: x,
}


def get_activation(name: str) -> Callable[[Tensor], Tensor]:
    """Look up an activation function by name (raises ``KeyError`` otherwise)."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; available: {sorted(_ACTIVATIONS)}"
        ) from None


class Linear(Module):
    """Affine map ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Whether to learn an additive bias.
    rng:
        Generator used for Xavier initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Affine map ``x @ W + b``: one fused ``linear_act`` op."""
        return self._affine(x, "identity")

    def _affine(self, x: Tensor, activation: str) -> Tensor:
        """``activation(x @ W + b)`` as one ``linear_act`` op."""
        inputs = (x, self.weight) if self.bias is None else (x, self.weight, self.bias)
        return apply("linear_act", inputs, activation=activation)


class MLP(Module):
    """Multi-layer perceptron with a configurable hidden activation.

    The paper uses LeakyReLU MLPs for the prior/posterior networks and
    the MixBernoulli heads (Eq. 4, Eq. 11); ``activation`` defaults to
    that.  ``out_activation`` is applied after the final layer.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activation: str = "leaky_relu",
        out_activation: str = "identity",
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng()
        self.sizes = tuple(int(s) for s in sizes)
        self.layers = [
            Linear(self.sizes[i], self.sizes[i + 1], bias=bias, rng=rng)
            for i in range(len(self.sizes) - 1)
        ]
        get_activation(activation)  # fail fast on unknown names
        get_activation(out_activation)
        self.activation = activation
        self.out_activation = out_activation

    def forward(self, x: Tensor) -> Tensor:
        """Apply all layers with the configured activations.

        Each affine+activation pair is one fused ``linear_act`` op (a
        3-layer MLP is 3 records on a tape).
        """
        for layer in self.layers[:-1]:
            x = layer._affine(x, self.activation)
        return self.layers[-1]._affine(x, self.out_activation)
