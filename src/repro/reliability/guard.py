"""The one guarded-request core every request service runs on.

How a request is guarded is decided here and nowhere else; the
services (``GenerationService``, ``QueryService`` and through it
``LiveQueryService``, and the workers of ``ProcessQueryService``) are
adapters that supply the ``run_once`` doing a request's work and turn
its :class:`Outcome` into their result type.

* :func:`guarded_call` runs one request: each attempt checks the
  deadline and fires the service's fault point keyed ``(*scope,
  index, attempt)``, under the service's retry policy (one attempt
  when it has none) with backoff jitter keyed by ``index``; any
  exception becomes a :class:`~repro.reliability.RequestFailure`.
* :class:`GuardedExecutor` runs a batch: admission, one deadline per
  request from admission on, and ``serial`` / ``thread`` /
  ``process`` execution in request order.  Thread waits end at the
  deadline; process workers get the budget left at dispatch and the
  parent's fault arming, so faults land alike on every executor.
* :class:`WorkerPool` is its pool (and the sharded decoder's).
"""

from __future__ import annotations

import concurrent.futures as futures
import contextlib
import os
import threading
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Any, Callable, Iterator, List, Optional, Sequence

from repro.reliability.backpressure import AdmissionController
from repro.reliability.errors import RequestFailure
from repro.reliability.faults import fault_injector
from repro.reliability.retry import Deadline, RetryPolicy

__all__ = [
    "EXECUTORS",
    "GuardedExecutor",
    "Outcome",
    "WorkerPool",
    "default_start_method",
    "guarded_call",
    "remaining_budget",
]

#: Executor kinds, in increasing isolation order.
EXECUTORS = ("serial", "thread", "process")

#: the policy of a service configured without retries
_ONE_ATTEMPT = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class Outcome:
    """What one guarded request produced: a value or a failure.

    ``value`` is whatever the service's ``run_once`` returned (``None``
    exactly when ``error`` is set); ``seconds`` is the request's wall
    clock across all attempts; ``attempts`` is at least 1.
    """

    value: Any
    seconds: float
    attempts: int = 1
    error: Optional[RequestFailure] = None

    @classmethod
    def failed(
        cls, exc: BaseException, seconds: float, attempts: int = 1
    ) -> "Outcome":
        """The outcome of a request that failed with ``exc``."""
        attempts = max(int(attempts), 1)
        failure = RequestFailure.from_exception(exc, attempts)
        return cls(None, seconds, attempts, failure)

    @classmethod
    def expired(cls, deadline: Deadline, attempts: int = 1) -> "Outcome":
        """The structured expiry of a request whose deadline passed."""
        return cls.failed(deadline.exceeded(), deadline.elapsed(), attempts)


def guarded_call(
    run_once: Callable[[], Any],
    *,
    point: str,
    index: int,
    deadline: Optional[Deadline] = None,
    policy: Optional[RetryPolicy] = None,
    scope: tuple = (),
    attempt_base: int = 0,
    on_attempt: Optional[Callable[[tuple], None]] = None,
) -> Outcome:
    """Run ``run_once`` under deadline, fault point and retry policy.

    Attempt ``k`` fires ``point`` with key ``(*scope, index, k)``,
    after ``on_attempt(key)`` when given.  ``k`` counts on from
    ``attempt_base``, the attempts a dead worker already spent on the
    request, which count towards the outcome.  Never raises.
    """
    start = perf_counter()
    attempts = attempt_base

    def attempt():
        # the policy checks the deadline before every attempt
        nonlocal attempts
        attempts += 1
        key = (*scope, index, attempts)
        if on_attempt is not None:
            on_attempt(key)
        fault_injector.fire(point, key=key)
        return run_once()

    try:
        value, _ = (policy or _ONE_ATTEMPT).run(
            attempt, key=index, deadline=deadline
        )
        return Outcome(value, perf_counter() - start, attempts)
    except Exception as exc:
        return Outcome.failed(exc, perf_counter() - start, attempts)


def remaining_budget(
    deadline: Optional[Deadline], floor: float = 1e-9
) -> Optional[float]:
    """Seconds ``deadline`` has left (at least ``floor``), or ``None``.

    The default floor keeps a shipped budget valid, so an expired
    request still reaches its worker and fails there as expired.
    """
    return None if deadline is None else max(deadline.remaining(), floor)


def _call_in_worker(payload) -> Outcome:
    """Process-pool side of :meth:`GuardedExecutor.map`: re-arm from the
    parent's copy, so keyed faults land as they would in-process."""
    run_once, request, index, budget, point, policy, arming = payload
    fault_injector.rearm(*arming)
    return guarded_call(
        partial(run_once, request), point=point, index=index,
        deadline=Deadline.after(budget), policy=policy,
    )


def default_start_method() -> str:
    """``fork`` where available (instant worker start), else ``spawn``."""
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class WorkerPool:
    """A ``serial`` / ``thread`` / ``process`` pool created on first use.

    ``max_workers`` defaults to ``cpu_count``.  Creation is locked:
    concurrent first callers must agree on one pool, or the loser's
    pool would outlive :meth:`close`.
    """

    def __init__(
        self, kind: str, max_workers: Optional[int] = None, name: str = "pool"
    ):
        if kind not in EXECUTORS:
            raise ValueError(
                f"unknown executor {kind!r}; expected one of {EXECUTORS}"
            )
        self.kind = kind
        self.max_workers = max_workers
        self.name = name
        self._pool = None
        self._lock = threading.Lock()

    def _get(self):
        with self._lock:
            if self._pool is None:
                workers = self.max_workers
                if workers is None:
                    workers = os.cpu_count() or 1
                workers = max(int(workers), 1)
                if self.kind == "thread":
                    self._pool = futures.ThreadPoolExecutor(
                        max_workers=workers, thread_name_prefix=self.name
                    )
                else:
                    import multiprocessing as mp

                    context = mp.get_context(default_start_method())
                    self._pool = context.Pool(workers)
            return self._pool

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List:
        """``[fn(item) for item in items]`` on the pool, in order."""
        if self.kind == "serial":
            return [fn(item) for item in items]
        return list(self._get().map(fn, items))

    def submit(self, fn: Callable[[], Any]) -> futures.Future:
        """Run ``fn()`` on a ``thread`` pool."""
        return self._get().submit(fn)

    def close(self) -> None:
        """Shut the pool down, if one was created."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        if self.kind == "thread":
            pool.shutdown(wait=True)
        else:
            pool.close()
            pool.join()


class GuardedExecutor:
    """Admission, deadlines, pool and ordered results for one service.

    Parameters
    ----------
    kind:
        ``"serial"`` (in-process loop), ``"thread"`` or ``"process"``
        (one pool of ``max_workers`` workers, default ``cpu_count``,
        created on first use and reused until :meth:`close`).
    point:
        The fault-injection point every attempt fires.
    retry_policy:
        Optional :class:`~repro.reliability.RetryPolicy`: transient
        failures (injected faults, I/O flakes) are retried with
        deterministic seeded backoff before the request fails.
    deadline_seconds:
        Optional per-request budget, from admission on, checked before
        every attempt.  ``thread`` also bounds the wait on each
        future, so a stuck request answers with a structured
        ``DeadlineExceededError`` instead of a hang; ``process``
        workers get the budget left at dispatch.
    max_pending:
        Bound on requests admitted but not finished, across concurrent
        callers; a batch that would exceed it raises
        :class:`~repro.reliability.ServiceOverloadedError` at once,
        never queueing unboundedly.  ``None`` disables the bound.
    """

    def __init__(
        self,
        kind: str,
        *,
        point: str,
        retry_policy: Optional[RetryPolicy] = None,
        deadline_seconds: Optional[float] = None,
        max_pending: Optional[int] = None,
        max_workers: Optional[int] = None,
        name: str = "service",
    ):
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        self.point = point
        self.retry_policy = retry_policy
        self.deadline_seconds = deadline_seconds
        self._admission = AdmissionController(max_pending)
        self.pool = WorkerPool(kind, max_workers, name)

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def admit(self, n: int) -> Iterator[List[Optional[Deadline]]]:
        """Admit ``n`` requests; yields one deadline per request.

        Raises :class:`~repro.reliability.ServiceOverloadedError` when
        the batch would exceed ``max_pending``.
        """
        with self._admission.admit(n):
            yield [Deadline.after(self.deadline_seconds) for _ in range(n)]

    def map(
        self,
        run_once: Callable[[Any], Any],
        requests: Sequence[Any],
        deadlines: Sequence[Optional[Deadline]],
    ) -> List[Outcome]:
        """Guard ``run_once(request)`` for each request, in order.

        For ``process`` pools ``run_once`` must be a module-level
        function and requests and values picklable.
        """
        indexed = list(enumerate(zip(requests, deadlines)))
        if self.pool.kind == "process":
            arming = fault_injector.arming()
            return self.pool.map(_call_in_worker, [
                (run_once, request, i, remaining_budget(deadline),
                 self.point, self.retry_policy, arming)
                for i, (request, deadline) in indexed
            ])
        calls = [
            partial(
                guarded_call, partial(run_once, request), point=self.point,
                index=i, deadline=deadline, policy=self.retry_policy,
            )
            for i, (request, deadline) in indexed
        ]
        if self.pool.kind == "serial":
            return [call() for call in calls]
        submitted = [self.pool.submit(call) for call in calls]
        outcomes = []
        for future, deadline in zip(submitted, deadlines):
            try:
                outcomes.append(
                    future.result(remaining_budget(deadline, floor=0.0))
                )
            except futures.TimeoutError:
                # the worker keeps running, but the caller gets a
                # structured expiry now instead of hanging on it
                future.cancel()
                outcomes.append(Outcome.expired(deadline))
        return outcomes

    def admission_stats(self):
        """Pending/admitted/shed counters of the bounded queue."""
        return self._admission.stats()

    def close(self) -> None:
        """Shut down the pool, if one was created."""
        self.pool.close()
