"""The plain :class:`Tensor`, grad mode, and the shared operator surface.

A :class:`Tensor` holds data — a ``float64`` array — plus ``grad`` and
``requires_grad``; it records nothing itself.  Its operators live in
:class:`Operators`, the one surface shared with tape
:class:`~repro.autodiff.tape.Variable`: every dunder, reduction, shape
op and convenience method calls the dispatcher
:func:`repro.autodiff.tape.apply`, which records the registered op on
the active :class:`~repro.autodiff.tape.Tape` (or the tape of a
Variable argument) and otherwise runs the op's forward kernel and
returns a constant Tensor.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Optional, Tuple, Union

import numpy as np

Arrayish = Union["Tensor", np.ndarray, float, int]


class _GradMode(threading.local):
    """Per-thread tape-recording switch.

    Thread-local (like torch's grad mode) so that concurrent inference
    — e.g. ``GenerationService``'s thread executor running
    ``VRDAG.generate`` in parallel — cannot race the save/restore in
    :func:`no_grad` and leave recording disabled process-wide.  Each
    new thread starts with recording enabled.
    """

    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (inference mode)."""
    prev = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded."""
    return _GRAD_MODE.enabled


def as_tensor(value: Arrayish) -> "Tensor":
    """Coerce ``value`` to a Tensor (no copy if it already is one).

    Tape :class:`~repro.autodiff.tape.Variable` values are rejected:
    coercing one to a constant Tensor would silently detach it from its
    tape and drop gradients (use ``Variable.detach()`` to do so on
    purpose).
    """
    if isinstance(value, Tensor):
        return value
    if isinstance(value, Operators):
        raise TypeError(
            "cannot coerce a tape Variable to a constant Tensor; use "
            "Variable.detach() to drop gradients explicitly"
        )
    return Tensor(np.asarray(value, dtype=np.float64))


class Operators:
    """Arithmetic, reductions and shape ops, written once for
    :class:`Tensor` and :class:`~repro.autodiff.tape.Variable`.

    Subclasses hold a ``data`` array; each method here dispatches a
    registered op through :func:`~repro.autodiff.tape.apply`.
    Comparisons are non-differentiable and return numpy bool arrays.
    """

    __slots__ = ()
    __array_priority__ = 100  # so np.ndarray's binary ops defer to us

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.data, dtype=dtype)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """The single scalar value (raises if ``size != 1``)."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """A constant Tensor sharing this data, cut from any tape."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        return apply("add", (self, other))

    def __radd__(self, other):
        return apply("add", (other, self))

    def __sub__(self, other):
        return apply("sub", (self, other))

    def __rsub__(self, other):
        return apply("sub", (other, self))

    def __mul__(self, other):
        return apply("mul", (self, other))

    def __rmul__(self, other):
        return apply("mul", (other, self))

    def __truediv__(self, other):
        return apply("div", (self, other))

    def __rtruediv__(self, other):
        return apply("div", (other, self))

    def __neg__(self):
        return apply("neg", (self,))

    def __pow__(self, exponent: float):
        if isinstance(exponent, Operators):
            raise TypeError("tensor exponents are not supported; use exp/log")
        return apply("pow", (self,), exponent=exponent)

    def __matmul__(self, other):
        return apply("matmul", (self, other))

    def __rmatmul__(self, other):
        return apply("matmul", (other, self))

    def __getitem__(self, index):
        return apply("getitem", (self,), index=index)

    # ------------------------------------------------------------------
    # comparisons (non-differentiable, return numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> np.ndarray:
        return self.data > np.asarray(other)

    def __lt__(self, other) -> np.ndarray:
        return self.data < np.asarray(other)

    def __ge__(self, other) -> np.ndarray:
        return self.data >= np.asarray(other)

    def __le__(self, other) -> np.ndarray:
        return self.data <= np.asarray(other)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        """Sum over ``axis`` (or all elements)."""
        return apply("sum", (self,), axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        """Mean over ``axis`` (or all elements)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False):
        """Maximum over ``axis``; gradient splits between ties."""
        return apply("max", (self,), axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        """Reshaped view; gradient reshapes back."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply("reshape", (self,), shape=shape)

    def transpose(self, *axes):
        """Axis permutation; gradient applies the inverse permutation."""
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return apply("transpose", (self,), axes=tuple(axes))

    @property
    def T(self):
        """Transposed view (gradient transposes back)."""
        return self.transpose()

    def expand_dims(self, axis: int):
        """Insert a size-1 axis at ``axis``."""
        return apply("expand_dims", (self,), axis=axis)

    def squeeze(self, axis: int):
        """Drop a size-1 axis at ``axis``."""
        return apply("squeeze", (self,), axis=axis)

    # ------------------------------------------------------------------
    # elementwise conveniences (same ops as repro.autodiff.functional)
    # ------------------------------------------------------------------
    def exp(self):
        return apply("exp", (self,))

    def log(self, eps: float = 0.0):
        return apply("log", (self,), eps=eps)

    def sqrt(self):
        return apply("sqrt", (self,))

    def abs(self):
        return apply("abs", (self,))

    def sigmoid(self):
        return apply("sigmoid", (self,))

    def tanh(self):
        return apply("tanh", (self,))

    def relu(self):
        return apply("relu", (self,))

    def clip(self, lo: float, hi: float):
        return apply("clip", (self,), lo=lo, hi=hi)

    def softmax(self, axis: int = -1):
        return apply("softmax", (self,), axis=axis)


class Tensor(Operators):
    """A ``float64`` array with an optional accumulated gradient.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts; stored as ``float64``.
    requires_grad:
        Whether a :class:`~repro.autodiff.tape.Tape` that lifts this
        tensor tracks it as a leaf: ``Tape.backward`` then accumulates
        into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data: Arrayish, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# the dispatcher lives with the tape, which builds on Tensor; bound last
# so the two modules can name each other
from repro.autodiff.tape import apply  # noqa: E402
