"""Reverse-mode automatic differentiation on numpy arrays.

This subpackage is the substrate that replaces PyTorch for the VRDAG
reproduction.  It has one engine, the flat tape:

* every numeric op is registered once (``ops.py`` primitives,
  ``fused.py`` encoder/decoder motifs) as a forward kernel plus a VJP
  kernel;
* the dispatcher :func:`apply` is the only way to run one: inside a
  ``with Tape():`` block (grads enabled) it appends a flat
  ``(op, input_ids, impl_kwargs, residuals)`` record to the tape, and
  ``backward`` is a single reverse loop calling the VJP kernels;
  outside a tape it calls the forward kernel and returns a constant
  :class:`Tensor` — the inference path;
* :class:`Tensor` is a plain data holder (``data``, ``grad``,
  ``requires_grad``); it and the tape's :class:`Variable` share one
  operator surface, and :mod:`repro.nn` modules call their fused ops
  unconditionally.

Grad mode and the active-tape stack are both thread-local.  Gradients
are pinned by finite differences (:func:`gradcheck`) and by a golden
fixture recorded from the retired closure engine
(``tests/autodiff/test_golden_gradients.py``).

Example
-------
>>> import numpy as np
>>> from repro.autodiff import Tensor, Tape
>>> x = Tensor(np.ones((2, 2)), requires_grad=True)
>>> with Tape():
...     y = (x * 3.0 + 1.0).sum()
...     y.backward()
>>> x.grad
array([[3., 3.],
       [3., 3.]])
"""

from repro.autodiff.tensor import Tensor, no_grad, is_grad_enabled
from repro.autodiff.tape import Tape, Variable, active_tape, apply
from repro.autodiff.gradcheck import gradcheck
from repro.autodiff import fused  # noqa: F401  (registers the fused ops)
from repro.autodiff import functional

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Tape",
    "Variable",
    "active_tape",
    "apply",
    "gradcheck",
    "functional",
]
