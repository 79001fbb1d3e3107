"""Bounded admission and structured load shedding for the services.

A long-lived service with an unbounded request queue fails by hanging
or by OOM — both opaque.  :class:`AdmissionController` is the bounded
alternative every service's submissions pass through: at most
``max_pending`` requests are in flight at once, and a submission that
would exceed the bound is *shed immediately* with a structured
:class:`~repro.reliability.errors.ServiceOverloadedError` carrying a
``retry_after_seconds`` estimate derived from the service's recent
per-request drain rate (an exponentially weighted moving average), so
clients can implement honest client-side backoff.

The controller is intentionally tiny: one lock, two counters, one
EWMA.  ``max_pending=None`` disables the bound (the pre-reliability
behavior) while keeping the drain-rate bookkeeping, so enabling
backpressure later is a constructor argument, not a code change.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, Optional

from repro.reliability.errors import ServiceOverloadedError

__all__ = ["AdmissionController"]

#: EWMA smoothing for the observed per-request service time.
_DRAIN_ALPHA = 0.2


class AdmissionController:
    """Bounded in-flight request accounting with load shedding.

    Parameters
    ----------
    max_pending:
        Maximum requests admitted but not yet released.  ``None``
        means unbounded (no shedding, bookkeeping only).
    retry_after_hint_seconds:
        Initial per-request drain-time estimate used for
        ``retry_after_seconds`` before any request has completed;
        refined by an EWMA of observed batch times afterwards.
    """

    def __init__(
        self,
        max_pending: Optional[int] = None,
        *,
        retry_after_hint_seconds: float = 0.05,
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        if retry_after_hint_seconds <= 0:
            raise ValueError("retry_after_hint_seconds must be positive")
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._pending = 0
        self._shed = 0
        self._admitted = 0
        self._drain_seconds = float(retry_after_hint_seconds)

    # ------------------------------------------------------------------
    def try_acquire(self, n: int = 1) -> None:
        """Admit ``n`` requests or shed with ``ServiceOverloadedError``.

        The retry-after estimate is how long the overflow should take
        to drain at the observed per-request rate: at least one
        drain interval, scaled by how deep the overflow runs.
        """
        if n < 1:
            raise ValueError("must acquire at least one slot")
        with self._lock:
            if (
                self.max_pending is not None
                and self._pending + n > self.max_pending
            ):
                self._shed += n
                overflow = self._pending + n - self.max_pending
                raise ServiceOverloadedError(
                    pending=self._pending,
                    capacity=self.max_pending,
                    retry_after_seconds=self._drain_seconds
                    * max(overflow, 1),
                )
            self._pending += n
            self._admitted += n

    def release(self, n: int = 1, seconds: Optional[float] = None) -> None:
        """Return ``n`` slots; ``seconds`` feeds the drain-rate EWMA."""
        with self._lock:
            self._pending = max(self._pending - n, 0)
            if seconds is not None and n > 0 and seconds >= 0:
                per_request = seconds / n
                self._drain_seconds += _DRAIN_ALPHA * (
                    per_request - self._drain_seconds
                )

    @contextlib.contextmanager
    def admit(self, n: int = 1) -> Iterator[None]:
        """``try_acquire``/``release`` as a scope; its time feeds the EWMA."""
        self.try_acquire(n)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.release(n, seconds=time.perf_counter() - start)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Pending/admitted/shed counters + current drain estimate."""
        with self._lock:
            return {
                "pending": self._pending,
                "admitted": self._admitted,
                "shed": self._shed,
                "capacity": (
                    -1 if self.max_pending is None else self.max_pending
                ),
                "drain_seconds_per_request": self._drain_seconds,
            }

    def __repr__(self) -> str:
        cap = "unbounded" if self.max_pending is None else self.max_pending
        return (
            f"AdmissionController(pending={self._pending}, capacity={cap}, "
            f"shed={self._shed})"
        )
