"""Finite-difference gradient checking.

:func:`gradcheck` records ``fn()`` on a fresh
:class:`~repro.autodiff.tape.Tape`, backpropagates, and pins the
resulting parameter gradients against central finite differences of
the loss evaluated without recording.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.autodiff.tape import Tape
from repro.autodiff.tensor import Tensor, no_grad

__all__ = ["gradcheck"]


def _loss_value(fn: Callable) -> float:
    with no_grad():
        out = fn()
    return float(out.data)


def gradcheck(
    fn: Callable,
    params: Sequence[Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    max_entries: Optional[int] = None,
    seed: int = 0,
) -> bool:
    """Check tape gradients of ``fn()`` by central differences.

    Parameters
    ----------
    fn:
        Zero-argument callable returning a scalar loss.  It must be
        re-runnable: every call performs a fresh forward pass over the
        current ``params`` data.  The analytic pass runs it inside a
        fresh ``Tape`` (a tape ``fn`` enters itself takes precedence).
    params:
        Leaf tensors (typically ``Module.parameters()``) whose
        gradients are checked.  Their ``.data`` is perturbed in place
        and restored.
    eps:
        Central-difference step.
    tol:
        Failure threshold on ``|analytic - numeric|`` scaled by
        ``max(1, |analytic|, |numeric|)``.
    max_entries:
        If set, check at most this many entries per parameter (chosen
        by a seeded RNG) — keeps the end-to-end VRDAG loss check fast.
    seed:
        Seed for the entry subsampling.

    Returns ``True`` on success; raises ``AssertionError`` naming the
    worst offending entry otherwise.
    """
    params = list(params)
    for p in params:
        p.grad = None
    with Tape() as tape:
        out = fn()
        if isinstance(out, Tensor):  # nothing recorded: all grads zero
            out = tape.lift(out)
        out.backward()
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for p in params
    ]
    for p in params:
        p.grad = None

    rng = np.random.default_rng(seed)
    failures = []
    for pi, (p, ana) in enumerate(zip(params, analytic)):
        flat = p.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        indices = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            indices = rng.choice(flat.size, size=max_entries, replace=False)
        for idx in indices:
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = _loss_value(fn)
            flat[idx] = orig - eps
            f_minus = _loss_value(fn)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            scale = max(1.0, abs(numeric), abs(float(ana_flat[idx])))
            err = abs(float(ana_flat[idx]) - numeric) / scale
            if err > tol:
                failures.append((pi, int(idx), float(ana_flat[idx]), numeric, err))

    if failures:
        worst = max(failures, key=lambda f: f[-1])
        raise AssertionError(
            f"gradcheck failed on {len(failures)} entries; worst: param "
            f"{worst[0]} entry {worst[1]}: analytic={worst[2]:.6g} "
            f"numeric={worst[3]:.6g} rel_err={worst[4]:.3g} (tol={tol})"
        )
    return True
