"""Deadlines and retries with deterministic, seeded backoff jitter.

Two small primitives the serving layer composes around every request:

* :class:`Deadline` — an absolute expiry derived from a per-request
  budget.  Cooperative: executors check it at request start and
  between retry attempts, and thread pools additionally bound the
  wait on the worker's future, so an expired request surfaces as a
  structured :class:`~repro.reliability.errors.DeadlineExceededError`
  instead of a hang.
* :class:`RetryPolicy` — capped exponential backoff whose jitter is a
  pure function of ``(seed, key, attempt)``, so a retried chaos run
  sleeps the exact same schedule every time.  Only exception types in
  ``retry_on`` are retried (default: transient injected faults and
  ``OSError`` — the I/O flakes retries exist for); everything else
  propagates immediately.

The policy never sleeps past the deadline: when the next backoff
would overrun it, the retry loop raises ``DeadlineExceededError``
right away instead of burning the remaining budget asleep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, TypeVar

from repro.reliability.errors import DeadlineExceededError, InjectedFault
from repro.reliability.faults import _unit_interval

__all__ = ["Deadline", "RetryPolicy"]

T = TypeVar("T")


class Deadline:
    """Absolute expiry for one request (monotonic clock).

    Create with :meth:`after`, which maps the ``None``-means-no-limit
    convention of service knobs onto an optional instance.
    """

    __slots__ = ("budget_seconds", "_expires_at", "_started_at")

    def __init__(self, budget_seconds: float):
        if budget_seconds <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_seconds = float(budget_seconds)
        self._started_at = time.monotonic()
        self._expires_at = self._started_at + self.budget_seconds

    @classmethod
    def after(
        cls, budget_seconds: Optional[float]
    ) -> Optional["Deadline"]:
        """A deadline ``budget_seconds`` from now, or ``None``."""
        return None if budget_seconds is None else cls(budget_seconds)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._expires_at - time.monotonic()

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return time.monotonic() - self._started_at

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, where: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` once expired."""
        if self.expired:
            raise self.exceeded(where)

    def exceeded(self, where: str = "request") -> DeadlineExceededError:
        """The error reporting this deadline's expiry, as of now."""
        return DeadlineExceededError(
            self.budget_seconds, self.elapsed(), where
        )

    def __repr__(self) -> str:
        return (
            f"Deadline(budget={self.budget_seconds:.3f}s, "
            f"remaining={self.remaining():.3f}s)"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total execution attempts (1 = no retries).
    base_delay_seconds, backoff_multiplier, max_delay_seconds:
        Attempt ``k`` (0-based failure count) backs off
        ``min(base * multiplier**k, max_delay)`` seconds before the
        jitter discount.
    jitter:
        Fraction of the backoff randomized away: the actual sleep is
        ``backoff * (1 - jitter * u)`` with ``u`` drawn
        deterministically from ``(seed, key, attempt)``.  ``0`` means
        fixed delays; ``1`` allows full collapse to zero.
    seed:
        Jitter seed; two policies with the same seed sleep the same
        schedule for the same keys.
    retry_on:
        Exception types worth retrying.  Defaults to
        (:class:`InjectedFault`, ``OSError``) — transient faults and
        I/O flakes; semantic errors (``ValueError`` et al.) are never
        retried.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.005
    backoff_multiplier: float = 2.0
    max_delay_seconds: float = 0.25
    jitter: float = 0.5
    seed: int = 0
    retry_on: Tuple[type, ...] = field(
        default=(InjectedFault, OSError)
    )

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    # ------------------------------------------------------------------
    def backoff_seconds(self, failures: int, key=0) -> float:
        """Deterministic sleep before the attempt after ``failures``."""
        raw = min(
            self.base_delay_seconds * self.backoff_multiplier**failures,
            self.max_delay_seconds,
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        u = _unit_interval(self.seed, "retry.backoff", key, str(failures))
        return raw * (1.0 - self.jitter * u)

    def run(
        self,
        fn: Callable[[], T],
        *,
        key=0,
        deadline: Optional[Deadline] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Tuple[T, int]:
        """Call ``fn`` under this policy; returns ``(result, attempts)``.

        Retries only ``retry_on`` exceptions and never sleeps past the
        ``deadline``.
        """
        attempts = 0
        while True:
            if deadline is not None and deadline.expired:
                raise deadline.exceeded()
            attempts += 1
            try:
                return fn(), attempts
            except self.retry_on as exc:
                if attempts >= self.max_attempts:
                    raise
                delay = self.backoff_seconds(attempts - 1, key)
                if deadline is not None and deadline.remaining() <= delay:
                    raise deadline.exceeded() from exc
                sleep(delay)
