"""Functional (free-function) differentiable operations.

These complement the operator methods of
:class:`~repro.autodiff.tensor.Operators`: nonlinearities, stable
softmax / log-sum-exp, concatenation, stacking and the numerically
careful primitives the VRDAG losses need (clipped log, sigmoid in the
stable regime, etc.).

Each function is one call of the dispatcher
:func:`repro.autodiff.tape.apply` on a registered op of
:mod:`repro.autodiff.ops`: recorded on the tape inside ``with Tape():``
(grads enabled) or on a tape :class:`~repro.autodiff.tape.Variable`'s
tape, a plain forward call returning a constant Tensor otherwise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autodiff.tape import apply
from repro.autodiff.tensor import Operators, Tensor

__all__ = [
    "exp",
    "log",
    "sqrt",
    "abs_",
    "sigmoid",
    "tanh",
    "relu",
    "leaky_relu",
    "elu",
    "softplus",
    "softmax",
    "log_softmax",
    "logsumexp",
    "clip",
    "concat",
    "stack",
    "where",
    "dropout",
    "maximum",
    "minimum",
    "norm",
]


def exp(x: Tensor) -> Tensor:
    """Elementwise ``e**x``."""
    return apply("exp", (x,))


def log(x: Tensor, eps: float = 0.0) -> Tensor:
    """Natural log; pass ``eps`` to clamp the argument away from zero."""
    return apply("log", (x,), eps=eps)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    return apply("sqrt", (x,))


def abs_(x: Tensor) -> Tensor:
    """Elementwise absolute value (subgradient 0 at 0)."""
    return apply("abs", (x,))


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid ``1 / (1 + e**-x)``."""
    return apply("sigmoid", (x,))


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return apply("tanh", (x,))


def relu(x: Tensor) -> Tensor:
    """Elementwise ``max(x, 0)``."""
    return apply("relu", (x,))


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Elementwise LeakyReLU: ``x`` if positive else ``slope * x``."""
    return apply("leaky_relu", (x,), negative_slope=negative_slope)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Elementwise ELU: ``x`` if positive else ``alpha * (e**x - 1)``."""
    return apply("elu", (x,), alpha=alpha)


def softplus(x: Tensor) -> Tensor:
    """Elementwise ``log(1 + e**x)`` (numerically stabilized)."""
    return apply("softplus", (x,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (shift-stabilized)."""
    return apply("softmax", (x,), axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (shift-stabilized)."""
    return apply("log_softmax", (x,), axis=axis)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """``log(sum(e**x))`` along ``axis`` (shift-stabilized)."""
    return apply("logsumexp", (x,), axis=axis, keepdims=keepdims)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Elementwise clamp to ``[lo, hi]``; gradient is 1 inside, 0 outside."""
    return apply("clip", (x,), lo=lo, hi=hi)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``; gradients split back."""
    return apply("concat", tuple(tensors), axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``; gradients unstack."""
    return apply("stack", tuple(tensors), axis=axis)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select; ``cond`` is a non-differentiable boolean mask."""
    return apply("where", (a, b), cond=np.asarray(cond, dtype=bool))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum of two tensors (ties route grad to the first)."""
    return where(np.asarray(a) >= np.asarray(b), a, b)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum of two tensors (ties route grad to the first)."""
    return where(np.asarray(a) <= np.asarray(b), a, b)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout with keep-scale applied at training time."""
    if not training or p <= 0.0:
        return x if isinstance(x, Operators) else Tensor(x)
    return apply("dropout", (x,), p=p, rng=rng)


def norm(x: Tensor, axis: int = -1, keepdims: bool = False, eps: float = 1e-12) -> Tensor:
    """Euclidean norm along ``axis`` (smoothed to stay differentiable at 0)."""
    sq = apply("sum", (apply("mul", (x, x)),), axis=axis, keepdims=keepdims)
    return sqrt(sq + eps)
