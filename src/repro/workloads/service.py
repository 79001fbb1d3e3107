"""Concurrent query serving: many request batches, one shared engine.

:class:`QueryService` is the workload counterpart of
:class:`~repro.api.service.GenerationService`: a batch of
:class:`QueryRequest`\\ s — each a sequence of
:class:`~repro.workloads.generator.Query` instances — is executed over
a ``serial`` or ``thread`` executor against **one shared engine**, and
every request's results are deterministic:

* Queries are pure reads over an immutable store, so a request's
  result cardinalities are a function of ``(graph, request)`` alone —
  batch composition, batch order, executor and pool width are pure
  deployment knobs (pinned by ``tests/workloads/test_service.py``).
* Results come back in request order regardless of completion order.
* All requests share one bounded
  :class:`~repro.workloads.cache.SnapshotPlanCache`, so a hot
  timestep's CSR/CSC plans are materialized once and reused across
  the whole request stream — that sharing is the point of serving
  through one service instead of per-request engines.

There is deliberately no ``process`` executor: the engine's value is
the *shared* in-memory store and plan cache, and shipping both to
worker processes would serialize the graph per worker — that
deployment is "run one service per process behind a router", not a
pool mode.  The kernels the requests spend their time in
(``searchsorted``, fancy gathers) release the GIL, so threads overlap
on multi-core hosts.

**Fault tolerance** (contract in ``docs/reliability.md``): requests
run on the shared guard of :mod:`repro.reliability.guard` —
per-request failures as values, deadlines, retries, admission.
Degradation is built in: a faulting batched kernel falls back to its
pinned per-query reference twin
(:func:`~repro.workloads.batch.run_queries_resilient`) and a faulting
plan-cache lookup is bypassed — in both cases completed results stay
bit-identical to the fault-free run (asserted by the chaos suite).
The injection points are ``query.request`` (here),
``query.batch_kernel`` (batch dispatch) and ``cache.plan`` (plan
cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.profiling import profiler
from repro.reliability import RequestFailure, RetryPolicy
from repro.reliability.guard import GuardedExecutor, Outcome
from repro.workloads.batch import run_queries_resilient
from repro.workloads.engine import GraphQueryEngine
from repro.workloads.generator import (
    Query,
    WorkloadConfig,
    WorkloadReport,
    replay_workload,
)

__all__ = [
    "SERVICE_EXECUTORS",
    "QueryRequest",
    "QueryResult",
    "QueryService",
]

#: Executor families the service supports (see the module docstring
#: for why ``process`` is intentionally absent).
SERVICE_EXECUTORS = ("serial", "thread")


@dataclass(frozen=True)
class QueryRequest:
    """One unit of serving work: an ordered sequence of queries."""

    queries: Tuple[Query, ...]

    def __init__(self, queries: Sequence[Query]):
        object.__setattr__(self, "queries", tuple(queries))
        if not self.queries:
            raise ValueError("a QueryRequest needs at least one query")

    def __len__(self) -> int:
        return len(self.queries)


@dataclass
class QueryResult:
    """A request together with its results and wall-clock.

    ``cardinalities[i]`` is the result cardinality of
    ``request.queries[i]`` — bit-identical to per-query dispatch.
    ``seconds_by_kind`` attributes the request's execution time to
    query classes (kernel-call granularity for batched classes).

    ``cardinalities`` is ``None`` exactly when ``error`` is set (the
    request failed after ``attempts`` executions); ``degraded_kinds``
    names query classes whose batched kernel faulted and fell back to
    the per-query reference twin (identical results).
    """

    request: QueryRequest
    cardinalities: Optional[np.ndarray]
    seconds: float
    seconds_by_kind: Dict[str, float]
    attempts: int = 1
    degraded_kinds: FrozenSet[str] = field(default_factory=frozenset)
    error: Optional[RequestFailure] = None

    @property
    def ok(self) -> bool:
        """True when the request produced cardinalities."""
        return self.error is None

    @classmethod
    def from_outcome(cls, request, outcome: Outcome) -> "QueryResult":
        """``request``'s result from its guarded outcome.

        A completed outcome's value is ``(cardinalities,
        seconds_by_kind, degraded_kinds)``.
        """
        cards, by_kind, degraded = outcome.value or (None, {}, frozenset())
        return cls(
            request, cards, outcome.seconds, by_kind, outcome.attempts,
            degraded, outcome.error,
        )


class QueryService:
    """Concurrent executor of query-request batches over one engine.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.dynamic.DynamicAttributedGraph` to
        serve, or an existing :class:`GraphQueryEngine` (e.g. one
        built via ``GraphQueryEngine.from_event_stream``).
    executor:
        ``"serial"`` (in-process loop) or ``"thread"`` (the batched
        kernels are GIL-releasing NumPy, so threads overlap).
    max_workers:
        Thread-pool width; defaults to ``cpu_count``.  The pool is
        created lazily on the first batch and reused; use the service
        as a context manager (or call :meth:`close`) to release it.
    cache_memory_budget_bytes:
        Budget for the shared plan cache when the service builds its
        own engine (ignored when an engine is passed in — its cache,
        and its budget, are adopted).
    retry_policy, deadline_seconds, max_pending:
        Retries of transient failures, a per-request budget and an
        admission bound, as described on the shared
        :class:`~repro.reliability.guard.GuardedExecutor`.
    """

    def __init__(
        self,
        graph: Union["DynamicAttributedGraph", GraphQueryEngine],
        *,
        executor: str = "thread",
        max_workers: Optional[int] = None,
        cache_memory_budget_bytes: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        deadline_seconds: Optional[float] = None,
        max_pending: Optional[int] = None,
    ):
        if executor not in SERVICE_EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of "
                f"{SERVICE_EXECUTORS} (query serving shares one in-memory "
                "store, so process pools are a deployment topology, not a "
                "pool mode)"
            )
        self._guard = GuardedExecutor(
            executor,
            point="query.request",
            retry_policy=retry_policy,
            deadline_seconds=deadline_seconds,
            max_pending=max_pending,
            max_workers=max_workers,
            name="query-service",
        )
        if isinstance(graph, GraphQueryEngine):
            self.engine = graph
        else:
            self.engine = GraphQueryEngine(
                graph,
                cache_memory_budget_bytes=cache_memory_budget_bytes,
            )
        # force the lazy plan cache now: an invalid budget must fail
        # service construction, not degrade the first request
        self.engine.plans

    # ------------------------------------------------------------------
    def _run_once(
        self,
        request: QueryRequest,
        engine: Optional[GraphQueryEngine] = None,
    ) -> Tuple[np.ndarray, Dict[str, float], FrozenSet[str]]:
        engine = engine if engine is not None else self.engine
        return run_queries_resilient(engine, request.queries)

    # ------------------------------------------------------------------
    def run_batch(
        self,
        requests: Sequence[QueryRequest],
        *,
        engine: Optional[GraphQueryEngine] = None,
    ) -> List[QueryResult]:
        """Execute every request; results are in request order.

        Per-request failures come back as structured
        :class:`~repro.reliability.RequestFailure` values on the
        affected results (check ``result.ok``); the only exception
        raised here is
        :class:`~repro.reliability.ServiceOverloadedError` when the
        batch would exceed ``max_pending``.

        ``engine`` overrides the service's engine for this batch only
        — the live tier's pinned-epoch hook
        (:class:`~repro.workloads.live.LiveQueryService` answers each
        batch against one epoch snapshot while the underlying store
        keeps ingesting).  Deadlines, retries and admission are
        unaffected by the override.
        """
        requests = list(requests)
        if not requests:
            return []
        run_once = partial(self._run_once, engine=engine)
        with self._guard.admit(len(requests)) as deadlines, \
                profiler.timer("workloads.service.run_batch"):
            outcomes = self._guard.map(run_once, requests, deadlines)
            return [
                QueryResult.from_outcome(r, o)
                for r, o in zip(requests, outcomes)
            ]

    def run_workload(
        self,
        config: WorkloadConfig,
        *,
        batch_size: int = 1024,
    ) -> Tuple[WorkloadReport, List[QueryResult]]:
        """Generate a workload mix and replay it through the service.

        The paper-style entry point: the mix described by ``config``
        is drawn against the served graph
        (:class:`WorkloadGenerator`), split into ``batch_size``-query
        requests, and executed on the service's pool.  Returns the
        aggregate :class:`WorkloadReport` (``total_seconds`` is the
        concurrent wall-clock, so ``throughput()`` reflects the pool)
        together with the per-request results.

        The report aggregates *completed* requests only; failed
        requests (possible when a deadline or armed fault injector is
        in play) stay visible on the returned results.  With
        ``max_pending`` set, size it for ``num_queries / batch_size``
        requests — the replay submits the whole workload in one
        ``run_batch`` call.
        """
        return replay_workload(
            self.run_batch, self.engine.graph, config, batch_size,
            QueryRequest,
        )

    # ------------------------------------------------------------------
    def plan_cache_stats(self):
        """Hit/miss/eviction/bypass counters of the shared plan cache."""
        return self.engine.plans.stats()

    def admission_stats(self):
        """Pending/admitted/shed counters of the bounded queue."""
        return self._guard.admission_stats()

    def close(self) -> None:
        """Shut down the thread pool (no-op for ``serial``)."""
        self._guard.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
