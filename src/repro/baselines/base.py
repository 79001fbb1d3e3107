"""Common protocol for all graph generators (VRDAG and baselines).

Besides the classic ``fit(graph)`` / ``generate(T)`` pair, every
generator speaks two data-oriented protocols consumed by
:mod:`repro.api`:

* **Construction as data** — :meth:`GraphGenerator.to_config` returns
  the keyword arguments that rebuild an equivalent unfitted instance
  via :meth:`GraphGenerator.from_config`; the default implementations
  reflect over ``__init__``, so a subclass only needs to store each
  constructor argument under its own name (all of ours do).
* **Fitted state as data** — :meth:`GraphGenerator.get_state` /
  :meth:`GraphGenerator.set_state` capture everything ``fit`` learned
  as a tree of arrays / scalars / containers, which
  :mod:`repro.api.artifacts` serializes into the versioned artifact
  envelope.  The default is reflective over ``vars(self)``; subclasses
  holding live objects (nn modules, samplers) either exclude them via
  :attr:`GraphGenerator._STATE_EXCLUDE` or override the pair to
  re-encode them (see e.g. ``GRAN`` or ``TIGGER``).
"""

from __future__ import annotations

import abc
import inspect
from typing import Any, Dict, Optional

import numpy as np

from repro.graph import DynamicAttributedGraph


class GraphGenerator(abc.ABC):
    """fit-then-generate interface shared by every generator.

    Subclasses set :attr:`fitted` in :meth:`fit`; :meth:`generate`
    raises if called before fitting.
    """

    #: instance attributes the reflective :meth:`get_state` skips —
    #: live helper objects a subclass either rebuilds lazily or
    #: re-encodes by overriding :meth:`get_state` / :meth:`set_state`
    _STATE_EXCLUDE: tuple = ()

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.fitted = False

    @abc.abstractmethod
    def fit(self, graph: DynamicAttributedGraph) -> "GraphGenerator":
        """Learn the generator from an observed dynamic attributed graph."""

    @abc.abstractmethod
    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Simulate a new dynamic attributed graph."""

    # ------------------------------------------------------------------
    # construction as data
    # ------------------------------------------------------------------
    @classmethod
    def config_keys(cls) -> tuple:
        """Names of the constructor arguments, in signature order."""
        params = inspect.signature(cls.__init__).parameters
        return tuple(
            name
            for name, p in params.items()
            if name != "self"
            and p.kind
            not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        )

    def to_config(self) -> Dict[str, Any]:
        """Constructor keyword arguments rebuilding this instance.

        Reflects over ``__init__``: each parameter must be stored on
        the instance under its own name (the repo-wide convention).
        """
        return {name: getattr(self, name) for name in self.config_keys()}

    @classmethod
    def from_config(cls, **config: Any) -> "GraphGenerator":
        """Build an unfitted instance from :meth:`to_config` output.

        Configs saved before the closure autodiff engine was retired
        carry an ``engine`` key for a constructor argument that no
        longer exists; it is dropped so those artifacts still load.
        """
        config.pop("engine", None)
        return cls(**config)

    # ------------------------------------------------------------------
    # fitted state as data
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        """Everything ``fit`` learned, as a serializable tree.

        Values may be numpy arrays, ``None``, primitives, or
        lists/tuples/dicts thereof (the envelope codec in
        :mod:`repro.api.artifacts` defines the exact closure).
        Attributes named in :attr:`_STATE_EXCLUDE` and constructor
        arguments (already covered by :meth:`to_config`) are skipped.
        """
        skip = set(self.config_keys()) | set(self._STATE_EXCLUDE)
        return {
            name: value
            for name, value in vars(self).items()
            if name not in skip
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`get_state` output onto a config-built instance."""
        for name, value in state.items():
            setattr(self, name, value)

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError(
                f"{type(self).__name__}.generate() called before fit()"
            )

    def _rng(self, seed: Optional[int]) -> np.random.Generator:
        return np.random.default_rng(self.seed if seed is None else seed)
