"""Flat-tape reverse-mode engine: ``Tape``, ``Record``, ``Variable``
and the dispatcher :func:`apply`.

Every numeric op is one registered :class:`~repro.autodiff.ops.OpSpec`
(:mod:`repro.autodiff.ops`, :mod:`repro.autodiff.fused`).  The
dispatcher :func:`apply` is the single entry point the operator surface
(:class:`~repro.autodiff.tensor.Operators`), :mod:`repro.autodiff.
functional` and the nn modules call: when a tape is in play it appends
one flat :class:`Record` — ``(op, input_ids, out_id, impl_kwargs,
residuals)`` — to that :class:`Tape`; otherwise it runs the op's
forward kernel and returns a constant
:class:`~repro.autodiff.tensor.Tensor`.  Because records are appended
in execution order the tape IS a topological order, so
:meth:`Tape.backward` is a single reverse loop over records calling
each op's registered VJP kernel — no graph walk, no per-node closure —
and fused composite ops collapse whole encoder/decoder motifs into one
record each.

Usage::

    with Tape() as tape:
        loss = model.sequence_loss(graph)   # every op records here
        loss.backward()                     # grads land in Parameter.grad

The active-tape stack is thread-local, like grad mode: concurrent
generation threads never observe a training thread's tape.  Recording
additionally respects :func:`~repro.autodiff.tensor.no_grad`, so
generation stays tape-free even inside a ``with Tape():`` block.

Leaf lifting rules (``Tape.lift``):

* a :class:`~repro.autodiff.tensor.Tensor` with ``requires_grad``
  (e.g. a ``Parameter``) becomes a tape leaf remembering its source —
  ``backward`` accumulates into the source's ``.grad`` so optimizers
  work unchanged; lifting the same Tensor twice reuses one slot;
* other Tensors, arrays and scalars become constants.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autodiff.ops import OpSpec, get_op
from repro.autodiff.tensor import Operators, Tensor, is_grad_enabled
from repro.profiling import profiler

__all__ = ["Record", "Tape", "Variable", "active_tape", "apply", "tape_for"]


class _ActiveTapes(threading.local):
    """Per-thread stack of entered tapes (innermost last)."""

    def __init__(self):
        self.stack: List["Tape"] = []


_ACTIVE = _ActiveTapes()


def active_tape() -> Optional["Tape"]:
    """The innermost entered :class:`Tape` on this thread, if any."""
    return _ACTIVE.stack[-1] if _ACTIVE.stack else None


def tape_for(*args: Any) -> Optional["Tape"]:
    """The routing rule of :func:`apply`.

    Returns the tape an operation should record onto: the tape of the
    first :class:`Variable` argument if there is one, else the active
    tape when grad recording is enabled, else ``None`` (no recording).
    """
    for a in args:
        if isinstance(a, Variable):
            return a.tape
    tape = active_tape()
    if tape is not None and is_grad_enabled():
        return tape
    return None


def apply(name: str, inputs: Sequence[Any], **kwargs: Any):
    """Run registered op ``name`` on ``inputs`` — the only dispatcher.

    Records onto :func:`tape_for`'s tape when there is one (returning a
    :class:`Variable`); otherwise calls the op's forward kernel and
    returns a constant :class:`~repro.autodiff.tensor.Tensor`.
    """
    tape = tape_for(*inputs)
    if tape is not None:
        return tape.apply(name, inputs, **kwargs)
    datas = [
        x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        for x in inputs
    ]
    return Tensor(get_op(name).forward(*datas, **kwargs)[0])


class Record:
    """One tape entry: op spec + flat value ids + kwargs + residuals."""

    __slots__ = ("spec", "input_ids", "out_id", "kwargs", "residuals")

    def __init__(
        self,
        spec: OpSpec,
        input_ids: Tuple[int, ...],
        out_id: int,
        kwargs: Dict[str, Any],
        residuals: Any,
    ):
        self.spec = spec
        self.input_ids = input_ids
        self.out_id = out_id
        self.kwargs = kwargs
        self.residuals = residuals

    def __repr__(self) -> str:
        return (
            f"Record(op={self.spec.name!r}, inputs={self.input_ids}, "
            f"out={self.out_id})"
        )


class Tape:
    """A flat list of :class:`Record` plus the value slots they address.

    Also a context manager: entering pushes the tape onto the
    thread-local active stack so every :func:`apply` records onto it.
    """

    def __init__(self):
        self._records: List[Record] = []
        self._values: List[np.ndarray] = []
        self._requires: List[bool] = []
        #: value id -> leaf Tensor whose ``.grad`` receives grads
        self._sources: Dict[int, Tensor] = {}
        #: id(Tensor) -> value id, so repeated lifts of the same
        #: Parameter within one tape reuse a single leaf slot
        self._lifted: Dict[int, int] = {}
        self._lifted_keep: List[Tensor] = []  # keep ids stable
        self._grads: Optional[List[Optional[np.ndarray]]] = None

    # ------------------------------------------------------------------
    # context manager / introspection
    # ------------------------------------------------------------------
    def __enter__(self) -> "Tape":
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _ACTIVE.stack.pop()
        assert popped is self, "tape stack corrupted"

    @property
    def records(self) -> Tuple[Record, ...]:
        """The recorded ops, in execution (= topological) order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return f"Tape(records={len(self._records)}, values={len(self._values)})"

    # ------------------------------------------------------------------
    # value construction
    # ------------------------------------------------------------------
    def _new_value(self, data: np.ndarray, requires: bool) -> int:
        vid = len(self._values)
        self._values.append(data)
        self._requires.append(requires)
        return vid

    def leaf(
        self,
        data: Any,
        requires_grad: bool = False,
        source: Optional[Tensor] = None,
    ) -> "Variable":
        """Create a leaf value (optionally tied to a source Tensor)."""
        arr = np.asarray(data, dtype=np.float64)
        vid = self._new_value(arr, bool(requires_grad))
        if source is not None and requires_grad:
            self._sources[vid] = source
        return Variable(self, vid, arr)

    def lift(self, value: Any) -> "Variable":
        """Coerce ``value`` onto this tape (see module docstring rules)."""
        if isinstance(value, Variable):
            if value.tape is not self:
                raise RuntimeError(
                    "cannot mix Variables from different tapes in one op"
                )
            return value
        if isinstance(value, Tensor):
            vid = self._lifted.get(id(value))
            if vid is not None:
                return Variable(self, vid, self._values[vid])
            var = self.leaf(
                value.data,
                requires_grad=value.requires_grad,
                source=value if value.requires_grad else None,
            )
            self._lifted[id(value)] = var.vid
            self._lifted_keep.append(value)
            return var
        return self.leaf(np.asarray(value, dtype=np.float64))

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def apply(self, name: str, inputs: Sequence[Any], **kwargs: Any) -> "Variable":
        """Run op ``name`` on ``inputs``, recording it when grads are on.

        Raises ``RuntimeError`` unless this tape is on this thread's
        active stack: off the stack, parameter-only subexpressions
        (``1.0 + epsilon``) would not record here, and their
        parameters' gradients would silently go missing.
        """
        if self not in _ACTIVE.stack:
            raise RuntimeError(
                "recording onto a tape that is not active on this "
                "thread; record inside `with tape:`"
            )
        spec = get_op(name)
        vars_ = [self.lift(x) for x in inputs]
        datas = tuple(v.data for v in vars_)
        if profiler.enabled:
            with profiler.timer(f"tape.op.{name}"):
                out, residuals = spec.forward(*datas, **kwargs)
        else:
            out, residuals = spec.forward(*datas, **kwargs)
        out = np.asarray(out, dtype=np.float64)
        requires = is_grad_enabled() and any(
            self._requires[v.vid] for v in vars_
        )
        out_id = self._new_value(out, requires)
        if requires:
            self._records.append(
                Record(spec, tuple(v.vid for v in vars_), out_id, kwargs, residuals)
            )
        return Variable(self, out_id, out)

    # ------------------------------------------------------------------
    # reverse sweep
    # ------------------------------------------------------------------
    def _pullback(
        self, out_id: int, seed: np.ndarray
    ) -> List[Optional[np.ndarray]]:
        """One reverse pass over the records; returns grads per value id."""
        grads: List[Optional[np.ndarray]] = [None] * len(self._values)
        grads[out_id] = seed
        requires = self._requires
        prof = profiler.enabled
        for rec in reversed(self._records):
            g = grads[rec.out_id]
            if g is None:
                continue
            inputs = tuple(self._values[i] for i in rec.input_ids)
            if prof:
                with profiler.timer(f"tape.vjp.{rec.spec.name}"):
                    pgs = rec.spec.vjp(g, inputs, rec.residuals, **rec.kwargs)
            else:
                pgs = rec.spec.vjp(g, inputs, rec.residuals, **rec.kwargs)
            for vid, pg in zip(rec.input_ids, pgs):
                if pg is None or not requires[vid]:
                    continue
                if grads[vid] is None:
                    grads[vid] = pg
                else:
                    grads[vid] = grads[vid] + pg
        return grads

    @staticmethod
    def _seed_for(out: "Variable", grad: Optional[np.ndarray]) -> np.ndarray:
        if grad is None:
            if out.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {out.shape}"
                )
            return np.ones_like(out.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != out.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match output shape "
                f"{out.shape}"
            )
        return grad

    def backward(self, out: "Variable", grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from ``out``; accumulate into source Tensors."""
        grads = self._pullback(out.vid, self._seed_for(out, grad))
        self._grads = grads
        for vid, src in self._sources.items():
            g = grads[vid]
            if g is None:
                continue
            src.grad = g if src.grad is None else src.grad + g

    def grad(self, var: Union["Variable", Tensor]) -> Optional[np.ndarray]:
        """Gradient of the last :meth:`backward` w.r.t. ``var``."""
        if self._grads is None:
            return None
        return self._grads[self._value_id(var)]

    def _value_id(self, var: Union["Variable", Tensor]) -> int:
        if isinstance(var, Variable):
            if var.tape is not self:
                raise RuntimeError("Variable belongs to a different tape")
            return var.vid
        vid = self._lifted.get(id(var))
        if vid is None:
            raise KeyError("Tensor was never lifted onto this tape")
        return vid


class Variable(Operators):
    """A value recorded on a :class:`Tape`.

    Shares the whole operator surface with
    :class:`~repro.autodiff.tensor.Tensor` (:class:`~repro.autodiff.
    tensor.Operators`) but holds only ``(tape, value id, array)``;
    ``grad`` and ``backward`` go through its tape.
    """

    __slots__ = ("tape", "vid", "data")

    def __init__(self, tape: Tape, vid: int, data: np.ndarray):
        self.tape = tape
        self.vid = vid
        self.data = data

    @property
    def requires_grad(self) -> bool:
        """Whether any recorded path reaches a grad-requiring leaf."""
        return self.tape._requires[self.vid]

    @property
    def grad(self) -> Optional[np.ndarray]:
        """Gradient from the tape's last backward pass, if any."""
        return self.tape.grad(self)

    def __repr__(self) -> str:
        return (
            f"Variable(shape={self.shape}, vid={self.vid}, "
            f"requires_grad={self.requires_grad})"
        )

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate through this Variable's tape."""
        self.tape.backward(self, grad)
