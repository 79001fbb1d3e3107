"""Op registry of the flat-tape autodiff engine.

Every primitive the tape engine can record is an :class:`OpSpec`: a
forward kernel producing ``(output, residuals)`` plus a VJP kernel,
both plain vectorized NumPy functions.  The
:class:`~repro.autodiff.tape.Tape` stores only ``(op, input_ids,
impl_kwargs, residuals)`` records — no per-Tensor closures — so the
backward sweep is a flat loop over records calling these kernels.

Kernel contracts
----------------
``forward(*input_arrays, **impl_kwargs) -> (out_array, residuals)``
    ``residuals`` is whatever the VJP needs beyond the inputs (often the
    output itself, a mask, or ``None``).

``vjp(grad, inputs, residuals, **impl_kwargs) -> tuple``
    One cotangent per input, positionally; ``None`` marks a
    non-differentiable slot.  Shapes must match the inputs exactly
    (kernels reduce broadcasts with :func:`unbroadcast`).

The registry is the only place numerics live: every ``Tensor`` /
``Variable`` operator, every :mod:`repro.autodiff.functional` function
and every nn module reaches these kernels through the dispatcher
:func:`repro.autodiff.tape.apply` — recorded on a tape while training,
plain forward calls otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = ["OpSpec", "register_op", "get_op", "registered_ops", "unbroadcast"]


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Inverse of numpy broadcasting: sums over the axes that were added or
    stretched when an operand of ``shape`` was broadcast to ``grad.shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


@dataclass(frozen=True)
class OpSpec:
    """One registered primitive: name + forward/VJP kernels."""

    name: str
    forward: Callable
    vjp: Callable


_REGISTRY: Dict[str, OpSpec] = {}


def register_op(
    name: str,
    forward: Callable,
    vjp: Callable,
    overwrite: bool = False,
) -> OpSpec:
    """Register a primitive under ``name`` and return its spec."""
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"op {name!r} is already registered")
    spec = OpSpec(name=name, forward=forward, vjp=vjp)
    _REGISTRY[name] = spec
    return spec


def get_op(name: str) -> OpSpec:
    """Look up a registered primitive (KeyError lists known ops)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown op {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_ops() -> Tuple[str, ...]:
    """Names of all registered primitives, sorted."""
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------
register_op(
    "add",
    lambda a, b: (a + b, None),
    lambda g, inputs, res: (
        unbroadcast(g, inputs[0].shape),
        unbroadcast(g, inputs[1].shape),
    ),
)

register_op(
    "sub",
    lambda a, b: (a - b, None),
    lambda g, inputs, res: (
        unbroadcast(g, inputs[0].shape),
        unbroadcast(-g, inputs[1].shape),
    ),
)

register_op(
    "mul",
    lambda a, b: (a * b, None),
    lambda g, inputs, res: (
        unbroadcast(g * inputs[1], inputs[0].shape),
        unbroadcast(g * inputs[0], inputs[1].shape),
    ),
)

register_op(
    "div",
    lambda a, b: (a / b, None),
    lambda g, inputs, res: (
        unbroadcast(g / inputs[1], inputs[0].shape),
        unbroadcast(-g * inputs[0] / (inputs[1] ** 2), inputs[1].shape),
    ),
)

register_op(
    "neg",
    lambda a: (-a, None),
    lambda g, inputs, res: (-g,),
)


def _pow_forward(a, *, exponent):
    return a**exponent, None


def _pow_vjp(g, inputs, res, *, exponent):
    return (g * exponent * inputs[0] ** (exponent - 1),)


register_op("pow", _pow_forward, _pow_vjp)


# ----------------------------------------------------------------------
# matmul (numpy's 1-D promotion rules, undone in the VJP)
# ----------------------------------------------------------------------
def _matmul_forward(a, b):
    return a @ b, None


def _matmul_vjp(g, inputs, res):
    a, b = inputs
    a2 = a[None, :] if a.ndim == 1 else a
    b2 = b[:, None] if b.ndim == 1 else b
    gg = g
    if a.ndim == 1:
        gg = gg[None, ...]
    if b.ndim == 1:
        gg = gg[..., None]

    ga = gg @ np.swapaxes(b2, -1, -2)
    if a.ndim == 1:
        ga = ga.reshape(-1, a.shape[0]).sum(axis=0)
    ga = unbroadcast(ga, a.shape)

    gb = np.swapaxes(a2, -1, -2) @ gg
    if b.ndim == 1:
        gb = gb.reshape(-1, b.shape[0]) if gb.ndim > 2 else gb
        gb = np.squeeze(gb, axis=-1) if gb.shape[-1] == 1 else gb
        gb = gb.sum(axis=tuple(range(gb.ndim - 1))) if gb.ndim > 1 else gb
    gb = unbroadcast(gb, b.shape)
    return ga, gb


register_op(
    "matmul",
    _matmul_forward,
    _matmul_vjp,
)


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def _sum_forward(a, *, axis=None, keepdims=False):
    return np.asarray(a.sum(axis=axis, keepdims=keepdims)), None


def _sum_vjp(g, inputs, res, *, axis=None, keepdims=False):
    (a,) = inputs
    if axis is None:
        return (np.broadcast_to(g, a.shape).copy(),)
    gg = g
    if not keepdims:
        gg = np.expand_dims(gg, axis=axis)
    return (np.broadcast_to(gg, a.shape).copy(),)


register_op("sum", _sum_forward, _sum_vjp)


def _max_forward(a, *, axis=None, keepdims=False):
    out = np.asarray(a.max(axis=axis, keepdims=keepdims))
    return out, out


def _max_vjp(g, inputs, out, *, axis=None, keepdims=False):
    (a,) = inputs
    gg, dd = g, out
    if axis is not None and not keepdims:
        gg = np.expand_dims(gg, axis=axis)
        dd = np.expand_dims(dd, axis=axis)
    mask = (a == dd).astype(np.float64)
    denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    return (gg * mask / denom,)


register_op("max", _max_forward, _max_vjp)


# ----------------------------------------------------------------------
# shape ops
# ----------------------------------------------------------------------
register_op(
    "reshape",
    lambda a, *, shape: (a.reshape(shape), None),
    lambda g, inputs, res, *, shape: (g.reshape(inputs[0].shape),),
)

register_op(
    "transpose",
    lambda a, *, axes: (a.transpose(axes), None),
    lambda g, inputs, res, *, axes: (g.transpose(tuple(np.argsort(axes))),),
)


def _getitem_forward(a, *, index):
    return np.asarray(a[index]), None


def _getitem_vjp(g, inputs, res, *, index):
    out = np.zeros_like(inputs[0])
    np.add.at(out, index, g)
    return (out,)


register_op("getitem", _getitem_forward, _getitem_vjp)

register_op(
    "expand_dims",
    lambda a, *, axis: (np.expand_dims(a, axis), None),
    lambda g, inputs, res, *, axis: (np.squeeze(g, axis=axis),),
)

register_op(
    "squeeze",
    lambda a, *, axis: (np.squeeze(a, axis=axis), None),
    lambda g, inputs, res, *, axis: (np.expand_dims(g, axis=axis),),
)


def _concat_forward(*arrays, axis=-1):
    return np.concatenate(arrays, axis=axis), None


def _concat_vjp(g, inputs, res, *, axis=-1):
    sizes = [a.shape[axis] for a in inputs]
    offsets = np.cumsum([0] + sizes)
    grads = []
    for i in range(len(inputs)):
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        grads.append(g[tuple(sl)])
    return tuple(grads)


register_op(
    "concat",
    _concat_forward,
    _concat_vjp,
)

register_op(
    "stack",
    lambda *arrays, axis=0: (np.stack(arrays, axis=axis), None),
    lambda g, inputs, res, *, axis=0: tuple(
        np.take(g, i, axis=axis) for i in range(len(inputs))
    ),
)


def _where_forward(a, b, *, cond):
    return np.where(cond, a, b), None


def _where_vjp(g, inputs, res, *, cond):
    return (
        unbroadcast(g * cond, inputs[0].shape),
        unbroadcast(g * (~cond), inputs[1].shape),
    )


register_op("where", _where_forward, _where_vjp)


# ----------------------------------------------------------------------
# elementwise nonlinearities
# ----------------------------------------------------------------------
def _exp_forward(a):
    out = np.exp(a)
    return out, out


register_op(
    "exp",
    _exp_forward,
    lambda g, inputs, out: (g * out,),
)


def _log_forward(a, *, eps=0.0):
    arg = a + eps if eps else a
    return np.log(arg), arg


register_op(
    "log",
    _log_forward,
    lambda g, inputs, arg, *, eps=0.0: (g / arg,),
)


def _sqrt_forward(a):
    out = np.sqrt(a)
    return out, out


register_op("sqrt", _sqrt_forward, lambda g, inputs, out: (g * 0.5 / out,))

register_op(
    "abs",
    lambda a: (np.abs(a), None),
    lambda g, inputs, res: (g * np.sign(inputs[0]),),
)


def stable_sigmoid(
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Numerically stable piecewise sigmoid (no overflow for large |x|):
    one ``exp`` pass, as ``exp(-|x|)`` is each branch's own ``exp``.

    Every step writes into ``out`` (which may be ``x`` itself) or into
    ``scratch``, a ``(float, bool)`` pair of ``x``-shaped buffers; a
    caller that passes both allocates nothing, and either way the
    values are ``where(x >= 0, 1 / (1 + e), e / (1 + e))``.
    """
    x = np.asarray(x)
    dtype = np.result_type(x, 1.0)
    if scratch is None:
        scratch = np.empty(x.shape, dtype), np.empty(x.shape, bool)
    e, neg = scratch
    if out is None:
        out = np.empty(x.shape, dtype)
    np.less(x, 0, out=neg)
    np.exp(np.negative(np.abs(x, out=e), out=e), out=e)
    np.add(e, 1.0, out=out)
    np.divide(e, out, out=e)                        # e / (1 + e)
    np.divide(1.0, out, out=out)                    # 1 / (1 + e)
    np.copyto(out, e, where=neg)
    return out


def _sigmoid_forward(a):
    out = stable_sigmoid(a)
    return out, out


register_op(
    "sigmoid",
    _sigmoid_forward,
    lambda g, inputs, out: (g * out * (1.0 - out),),
)


def _tanh_forward(a):
    out = np.tanh(a)
    return out, out


register_op(
    "tanh",
    _tanh_forward,
    lambda g, inputs, out: (g * (1.0 - out**2),),
)


def _relu_forward(a):
    return np.maximum(a, 0.0), (a > 0).astype(np.float64)


register_op("relu", _relu_forward, lambda g, inputs, mask: (g * mask,))


def _leaky_relu_forward(a, *, negative_slope=0.2):
    mask = np.where(a > 0, 1.0, negative_slope)
    return a * mask, mask


register_op(
    "leaky_relu",
    _leaky_relu_forward,
    lambda g, inputs, mask, *, negative_slope=0.2: (g * mask,),
)


def _elu_forward(a, *, alpha=1.0):
    neg = alpha * (np.exp(np.clip(a, None, 0)) - 1.0)
    out = np.where(a > 0, a, neg)
    local = np.where(a > 0, 1.0, neg + alpha)
    return out, local


register_op(
    "elu",
    _elu_forward,
    lambda g, inputs, local, *, alpha=1.0: (g * local,),
)


def _softplus_forward(a):
    out = np.logaddexp(0.0, a)
    sig = 1.0 / (1.0 + np.exp(-np.clip(a, -60, 60)))
    return out, sig


register_op("softplus", _softplus_forward, lambda g, inputs, sig: (g * sig,))


def _sin_forward(a):
    return np.sin(a), None


register_op(
    "sin",
    _sin_forward,
    lambda g, inputs, res: (g * np.cos(inputs[0]),),
)


def _softmax_forward(a, *, axis=-1):
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    return out, out


def _softmax_vjp(g, inputs, out, *, axis=-1):
    dot = (g * out).sum(axis=axis, keepdims=True)
    return (out * (g - dot),)


register_op("softmax", _softmax_forward, _softmax_vjp)


def _log_softmax_forward(a, *, axis=-1):
    shifted = a - a.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    return out, np.exp(out)


def _log_softmax_vjp(g, inputs, soft, *, axis=-1):
    return (g - soft * g.sum(axis=axis, keepdims=True),)


register_op("log_softmax", _log_softmax_forward, _log_softmax_vjp)


def _logsumexp_forward(a, *, axis=-1, keepdims=False):
    m = a.max(axis=axis, keepdims=True)
    e = np.exp(a - m)
    s = e.sum(axis=axis, keepdims=True)
    out = np.log(s) + m
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return np.asarray(out), e / s


def _logsumexp_vjp(g, inputs, soft, *, axis=-1, keepdims=False):
    gg = g
    if not keepdims:
        gg = np.expand_dims(gg, axis=axis)
    return (gg * soft,)


register_op("logsumexp", _logsumexp_forward, _logsumexp_vjp)


def _clip_forward(a, *, lo, hi):
    return np.clip(a, lo, hi), None


def _clip_vjp(g, inputs, res, *, lo, hi):
    (a,) = inputs
    mask = ((a >= lo) & (a <= hi)).astype(np.float64)
    return (g * mask,)


register_op("clip", _clip_forward, _clip_vjp)


def _dropout_forward(a, *, p, rng):
    keep = 1.0 - p
    mask = (rng.random(a.shape) < keep).astype(np.float64) / keep
    return a * mask, mask


register_op(
    "dropout",
    _dropout_forward,
    lambda g, inputs, mask, *, p, rng: (g * mask,),
)
