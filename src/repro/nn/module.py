"""Module/Parameter container protocol (a minimal ``torch.nn.Module``)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.autodiff import Tensor


class Parameter(Tensor):
    """A Tensor that is registered as trainable by :class:`Module`."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` walks the tree.  Keeps a ``training``
    flag toggled by :meth:`train` / :meth:`eval` (used by dropout).
    """

    def __init__(self):
        self.training = True

    # -- parameter / submodule discovery --------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, Parameter)`` pairs, depth-first."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> List[Parameter]:
        """All parameters, depth-first."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """This module and every submodule, depth-first."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- train / eval ----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Enter training mode (recursively)."""
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        """Enter inference mode (recursively)."""
        return self.train(False)

    # -- grads -------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        """Total number of scalar parameters (paper §III-G model complexity)."""
        return sum(p.size for p in self.parameters())

    # -- state dict --------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` (shape-checked)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for name, p in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {p.data.shape}, "
                    f"got {value.shape}"
                )
            p.data = value.copy()

    # -- call --------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        """Computation of this module; subclasses must override."""
        raise NotImplementedError
