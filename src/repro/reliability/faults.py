"""Deterministic, seeded fault injection for chaos testing.

:data:`fault_injector` is a process-global singleton in the mold of
:data:`repro.profiling.profiler`: library code calls
``fault_injector.fire("point.name", key=...)`` unconditionally at its
named injection points, and the call is a single attribute check
(near-zero overhead) until a test *arms* the injector::

    from repro.reliability import FaultPlan, fault_injector

    with fault_injector.arm(
        {"query.request": FaultPlan(kind="error", rate=0.3)}, seed=7
    ):
        service.run_batch(requests)   # ~30% of requests fault, the
                                      # same ones for the same seed

Three fault kinds cover the chaos suite's failure menagerie:

``"error"``
    The point raises :class:`~repro.reliability.errors.InjectedFault`
    — a crashed worker, a failed artifact read, a cache fault.
``"delay"``
    The point sleeps ``delay_seconds`` — a slow worker; used to
    provoke deadline expiry deterministically.
``"corrupt"``
    :meth:`FaultInjector.corrupt_bytes` flips one deterministic byte
    of the payload — truncated/corrupted artifact bytes; ``fire`` is
    a no-op for corrupt plans (only byte-carrying call sites consume
    them).

**Determinism.**  Whether an arrival triggers is a pure function of
``(seed, point, key)`` through a SHA-256 hash — no global RNG state,
no ordering sensitivity.  Call sites pass a stable ``key`` (request
index, retry attempt, path) so the *same* arrivals fault on every run
regardless of thread scheduling; when ``key`` is omitted, a per-point
arrival counter is used instead (deterministic for serial execution).
``max_triggers`` caps a plan's total firings, which is how tests
model "the first k attempts fail, then the retry succeeds".
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.reliability.errors import InjectedFault

__all__ = ["FaultInjector", "FaultPlan", "fault_injector"]

_KINDS = ("error", "delay", "corrupt")


def _unit_interval(seed: int, point: str, key, salt: str) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from a stable hash."""
    payload = f"{seed}\x1f{point}\x1f{key!r}\x1f{salt}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """What one injection point does while the injector is armed.

    Parameters
    ----------
    kind:
        ``"error"`` (raise :class:`InjectedFault`), ``"delay"``
        (sleep ``delay_seconds``), or ``"corrupt"`` (flip a byte in
        payloads passed to :meth:`FaultInjector.corrupt_bytes`).
    rate:
        Probability in ``[0, 1]`` that an arrival triggers; the draw
        is deterministic in ``(seed, point, key)``.
    delay_seconds:
        Sleep length for ``"delay"`` plans.
    max_triggers:
        Cap on total firings (``None`` = unlimited).  With
        ``rate=1.0`` this means "the first N arrivals fault".
    """

    kind: str = "error"
    rate: float = 1.0
    delay_seconds: float = 0.0
    max_triggers: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        if self.max_triggers is not None and self.max_triggers < 1:
            raise ValueError("max_triggers must be >= 1 (or None)")


class FaultInjector:
    """Process-global registry of armed injection points.

    Disabled by default: every :meth:`fire` / :meth:`corrupt_bytes`
    call site pays one attribute check and returns.  Arm with
    :meth:`arm` (scoped) or :meth:`configure` + ``enabled = True``.
    """

    def __init__(self):
        self.enabled: bool = False
        self.seed: int = 0
        self._plans: Dict[str, FaultPlan] = {}
        self._lock = threading.Lock()
        self._arrivals: Dict[str, int] = {}
        self._triggers: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def configure(
        self, plans: Mapping[str, FaultPlan], seed: int = 0
    ) -> None:
        """Install ``plans`` (point name -> :class:`FaultPlan`) + seed.

        Resets the arrival/trigger counters; does *not* enable the
        injector — use :meth:`arm` for the scoped form tests want.
        """
        for point, plan in plans.items():
            if not isinstance(plan, FaultPlan):
                raise TypeError(
                    f"plan for {point!r} must be a FaultPlan, "
                    f"got {type(plan).__name__}"
                )
        with self._lock:
            self._plans = dict(plans)
            self.seed = int(seed)
            self._arrivals.clear()
            self._triggers.clear()

    @contextlib.contextmanager
    def arm(
        self, plans: Mapping[str, FaultPlan], seed: int = 0
    ) -> Iterator["FaultInjector"]:
        """Enable the given plans for the ``with`` body, then disarm."""
        self.configure(plans, seed=seed)
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            with self._lock:
                self._plans = {}

    def reset(self) -> None:
        """Disarm and drop all plans and counters."""
        self.enabled = False
        with self._lock:
            self._plans = {}
            self._arrivals.clear()
            self._triggers.clear()

    def arming(self) -> Tuple[Dict[str, FaultPlan], int, bool]:
        """Picklable ``(plans, seed, enabled)`` copy for :meth:`rearm`."""
        with self._lock:
            return dict(self._plans), self.seed, self.enabled

    def rearm(
        self, plans: Mapping[str, FaultPlan], seed: int, enabled: bool
    ) -> None:
        """Drop all state and re-arm from an :meth:`arming` copy — how
        a worker process takes on its parent's chaos schedule."""
        self.reset()
        if enabled and plans:
            self.configure(plans, seed=seed)
            self.enabled = True

    # ------------------------------------------------------------------
    # decision core
    # ------------------------------------------------------------------
    def _triggered(self, point: str, key) -> Optional[int]:
        """Trigger ordinal if this arrival faults, else ``None``."""
        plan = self._plans.get(point)
        if plan is None:
            return None
        with self._lock:
            arrival = self._arrivals.get(point, 0) + 1
            self._arrivals[point] = arrival
        if key is None:
            key = arrival
        if plan.rate < 1.0 and (
            _unit_interval(self.seed, point, key, "trigger") >= plan.rate
        ):
            return None
        with self._lock:
            triggered = self._triggers.get(point, 0)
            if (
                plan.max_triggers is not None
                and triggered >= plan.max_triggers
            ):
                return None
            self._triggers[point] = triggered + 1
        return triggered + 1

    # ------------------------------------------------------------------
    # injection points
    # ------------------------------------------------------------------
    def fire(self, point: str, key=None) -> None:
        """Run the armed plan for ``point`` (no-op when disabled).

        ``"error"`` plans raise :class:`InjectedFault`; ``"delay"``
        plans sleep; ``"corrupt"`` plans do nothing here (they act
        through :meth:`corrupt_bytes`).
        """
        if not self.enabled:
            return
        plan = self._plans.get(point)
        if plan is None or plan.kind == "corrupt":
            return
        trigger = self._triggered(point, key)
        if trigger is None:
            return
        if plan.kind == "delay":
            time.sleep(plan.delay_seconds)
            return
        raise InjectedFault(point, trigger)

    def corrupt_bytes(self, point: str, data: bytes, key=None) -> bytes:
        """Deterministically flip one byte of ``data`` when triggered.

        Returns ``data`` unchanged while disabled, when no
        ``"corrupt"`` plan is armed for ``point``, when the rate draw
        spares this arrival, or when ``data`` is empty.
        """
        if not self.enabled:
            return data
        plan = self._plans.get(point)
        if plan is None or plan.kind != "corrupt" or not data:
            return data
        if self._triggered(point, key) is None:
            return data
        pos = int(
            _unit_interval(self.seed, point, key, "position") * len(data)
        )
        corrupted = bytearray(data)
        corrupted[pos] ^= 0xFF
        return bytes(corrupted)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-point ``{"arrivals": ..., "triggers": ...}`` counters."""
        with self._lock:
            points = set(self._arrivals) | set(self._triggers)
            return {
                point: {
                    "arrivals": self._arrivals.get(point, 0),
                    "triggers": self._triggers.get(point, 0),
                }
                for point in sorted(points)
            }

    def __repr__(self) -> str:
        state = "armed" if self.enabled else "disarmed"
        return (
            f"FaultInjector({state}, seed={self.seed}, "
            f"points={sorted(self._plans)})"
        )


#: process-global injector every library injection point reports to
fault_injector = FaultInjector()
