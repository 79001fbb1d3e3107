"""The request router: front door of the multi-process serving tier.

:class:`ProcessQueryService` is the process-pool counterpart of
:class:`~repro.workloads.service.QueryService` and keeps its external
contract: request batches in, per-request results out **in request
order**, per-request failures as structured
:class:`~repro.reliability.RequestFailure` values, and every
completed result bit-identical to the same request run through the
single-process service.  What changes is the execution substrate:

* the store is exported once into a
  :class:`~repro.serving.segments.SharedStoreSegment` (the single
  resident copy of the graph columns);
* N long-lived worker processes
  (:func:`~repro.serving.worker.worker_main`) attach it zero-copy and
  run the full engine stack with per-worker plan caches;
* the router round-robins request batches across workers over duplex
  pipes — legal *because* the per-request contract is deterministic:
  a request's cardinalities are a function of ``(graph, request)``
  alone, so placement is a pure deployment knob and the router can
  route freely (pinned by ``tests/serving/test_router.py``).

**Reliability across the process boundary** (knobs and semantics
mirror the single-process service; contract in
``docs/reliability.md``):

* ``deadline_seconds`` — each request carries its remaining budget to
  the worker (cooperative check at attempt start) *and* the router
  bounds its own wait: an expired in-flight request fails with a
  structured ``DeadlineExceededError`` immediately, and its late
  reply, if one ever arrives, is dropped.
* ``retry_policy`` — shipped to workers, which retry transient
  *in-worker* faults locally (backoff and all), exactly as the
  single-process service would.  The router itself retries only
  worker **death**: a dead worker is respawned on the same segment
  and, while the policy's ``max_attempts`` allows, the requests it
  held are resent (fault-key offset by the attempts already spent,
  so a resend is a fresh arrival, not a replay of the crash).
  Without a policy, each lost request fails with a
  :class:`~repro.reliability.WorkerCrashError`-typed failure.  Either
  way the crash is isolated: requests on other workers are untouched.
* ``max_pending`` — the shared guard's admission bound
  (:class:`~repro.reliability.guard.GuardedExecutor`), applied at
  ``run_batch`` admission.

The tier's native request format is the
:class:`~repro.serving.protocol.ColumnarQueryRequest`; plain
:class:`~repro.workloads.service.QueryRequest` batches are accepted
and encoded at the door.  Results are
:class:`~repro.workloads.service.QueryResult` values either way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.profiling import profiler
from repro.reliability import (
    Deadline,
    RequestFailure,
    RetryPolicy,
    WorkerCrashError,
    fault_injector,
)
from repro.reliability.guard import (
    GuardedExecutor,
    Outcome,
    default_start_method,
    remaining_budget,
)
from repro.serving.protocol import ColumnarQueryRequest, encode_queries
from repro.serving.segments import SharedStoreSegment
from repro.serving.worker import WorkerConfig, worker_main
from repro.workloads.cache import PlanCacheStats
from repro.workloads.generator import (
    WorkloadConfig,
    WorkloadReport,
    replay_workload,
)
from repro.workloads.service import QueryRequest, QueryResult

__all__ = ["ProcessQueryService"]


class _Worker:
    """One worker process + its pipe + the requests it holds."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.process = None
        self.conn = None
        self.inflight: Dict[int, "_Pending"] = {}
        self.respawns = 0
        self.idle_deaths = 0  # deaths with no requests in flight

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


@dataclass
class _Pending:
    """Router-side state of one in-flight request."""

    index: int  # position in the submitted batch
    enc: ColumnarQueryRequest
    deadline: Optional[Deadline]
    start: float
    attempts_spent: int = 0  # attempts burned in dead workers


class ProcessQueryService:
    """Multi-process query serving: router + worker pool + one segment.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.dynamic.DynamicAttributedGraph`, a
        :class:`~repro.graph.store.TemporalEdgeStore`, or a
        :class:`~repro.workloads.engine.GraphQueryEngine` (its store
        is exported; its in-process plan cache is *not* shared —
        workers build their own).
    num_workers:
        Worker-process count (>= 1).
    cache_memory_budget_bytes:
        Per-worker plan-cache byte budget (each worker owns a cache;
        the budget is per worker, not pooled).
    retry_policy / deadline_seconds / max_pending:
        The :class:`~repro.workloads.service.QueryService` reliability
        knobs, threaded across the process boundary (see module
        docstring for the split of retry responsibilities).
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"``
        where available (instant worker start) else ``"spawn"``.

    Use as a context manager (or call :meth:`close`): the service
    owns OS resources — worker processes and the shared-memory
    segment — and ``close()`` is what guarantees no segment leaks
    (pinned by ``tests/serving/test_lifecycle.py``).
    """

    def __init__(
        self,
        graph,
        *,
        num_workers: int = 2,
        cache_memory_budget_bytes: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        deadline_seconds: Optional[float] = None,
        max_pending: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        # admission, deadlines and the knobs; the workers run the
        # guarded attempts and this router its own event loop
        self._guard = GuardedExecutor(
            "process",
            point="serving.worker",
            retry_policy=retry_policy,
            deadline_seconds=deadline_seconds,
            max_pending=max_pending,
        )
        self.graph, store = self._resolve(graph)
        self.num_workers = int(num_workers)
        self.cache_memory_budget_bytes = cache_memory_budget_bytes
        import multiprocessing as mp

        start_method = start_method or default_start_method()
        self._ctx = mp.get_context(start_method)
        self.start_method = start_method
        self._lock = threading.RLock()
        self._next_id = 0
        self._closed = False
        self.segment = SharedStoreSegment(store)
        try:
            self._workers = [
                self._spawn(i) for i in range(self.num_workers)
            ]
        except Exception:
            self.close()
            raise

    @staticmethod
    def _resolve(graph):
        """Accept graph / store / engine; return (graph, store)."""
        from repro.graph.dynamic import DynamicAttributedGraph
        from repro.graph.store import TemporalEdgeStore
        from repro.workloads.engine import GraphQueryEngine

        if isinstance(graph, GraphQueryEngine):
            graph = graph.graph
        if isinstance(graph, TemporalEdgeStore):
            graph = DynamicAttributedGraph.from_store(graph)
        return graph, graph.store

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _worker_config(self, worker_id: int) -> WorkerConfig:
        # replicate the parent's current fault arming so chaos
        # schedules survive the process boundary (fork or spawn)
        return WorkerConfig(
            manifest=self.segment.manifest,
            worker_id=worker_id,
            cache_memory_budget_bytes=self.cache_memory_budget_bytes,
            retry_policy=self._guard.retry_policy,
            fault_arming=fault_injector.arming(),
        )

    def _spawn(self, worker_id: int, slot: Optional[_Worker] = None) -> _Worker:
        worker = slot if slot is not None else _Worker(worker_id)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(self._worker_config(worker_id), child_conn),
            name=f"query-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker holds its own end
        worker.process = process
        worker.conn = parent_conn
        worker.inflight = {}
        return worker

    def _reap(self, worker: _Worker) -> Optional[int]:
        """Tear down a dead worker's handles; returns its exit code."""
        exit_code = None
        if worker.process is not None:
            worker.process.join(timeout=1.0)
            exit_code = worker.process.exitcode
            if worker.process.is_alive():  # pragma: no cover - stuck
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        if worker.conn is not None:
            try:
                worker.conn.close()
            except Exception:
                pass
        worker.process = None
        worker.conn = None
        return exit_code

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _send(self, worker: _Worker, req_id: int, state: _Pending) -> None:
        # register before sending: if the pipe is already broken the
        # crash handler must see this request among the worker's losses
        worker.inflight[req_id] = state
        if worker.conn is None:
            raise BrokenPipeError("worker is down")
        worker.conn.send((
            "run", req_id, state.enc.columns(),
            remaining_budget(state.deadline), state.attempts_spent,
        ))

    def _handle_crash(
        self,
        worker: _Worker,
        outcomes: List[Optional[Outcome]],
        outstanding: Dict[int, _Pending],
    ) -> None:
        """Respawn a dead worker; retry or fail the requests it held.

        A worker that keeps dying with *nothing* in flight is failing
        at startup (e.g. the segment vanished) — after a few such
        deaths it is left down instead of respawned forever.  Deaths
        with requests in flight always respawn: those are the crashes
        the tier exists to survive.
        """
        exit_code = self._reap(worker)
        lost = worker.inflight
        worker.inflight = {}
        if lost:
            worker.idle_deaths = 0
        else:
            worker.idle_deaths += 1
            if worker.idle_deaths > 3:
                return  # startup-failure loop: leave the worker down
        worker.respawns += 1
        self._spawn(worker.worker_id, slot=worker)
        crash = WorkerCrashError(worker.worker_id, exit_code)
        policy = self._guard.retry_policy
        for req_id, state in lost.items():
            state.attempts_spent += 1
            retry = (
                policy is not None
                and state.attempts_spent < policy.max_attempts
                and (
                    state.deadline is None or not state.deadline.expired
                )
            )
            if retry:
                try:
                    self._send(worker, req_id, state)
                    continue
                except (BrokenPipeError, OSError):
                    worker.inflight.pop(req_id, None)
            outcomes[state.index] = Outcome.failed(
                crash, perf_counter() - state.start, state.attempts_spent
            )
            outstanding.pop(req_id, None)

    def _expire_overdue(
        self,
        outcomes: List[Optional[Outcome]],
        outstanding: Dict[int, _Pending],
        canceled: set,
    ) -> None:
        for req_id, state in list(outstanding.items()):
            if state.deadline is not None and state.deadline.expired:
                outcomes[state.index] = Outcome.expired(
                    state.deadline, state.attempts_spent
                )
                outstanding.pop(req_id)
                canceled.add(req_id)  # drop the late reply if it comes

    #: Max requests in flight per worker pipe.  2 = one executing, one
    #: buffered (no worker idle gap between requests) while keeping
    #: pipe occupancy low enough that the router can never block on a
    #: full request pipe while a worker blocks on a full reply pipe —
    #: the send/send deadlock unbounded pipelining invites.
    _WINDOW = 2

    def _event_loop(
        self,
        requests: Sequence[Union[QueryRequest, ColumnarQueryRequest]],
        deadlines: Sequence[Optional[Deadline]],
    ) -> List[QueryResult]:
        from collections import deque
        from multiprocessing.connection import wait as conn_wait

        outcomes: List[Optional[Outcome]] = [None] * len(requests)
        outstanding: Dict[int, _Pending] = {}
        canceled: set = set()
        live = [w for w in self._workers if w.conn is not None]
        if not live:  # every worker is down: try a full respawn
            for worker in self._workers:
                worker.idle_deaths = 0
                worker.respawns += 1
                self._spawn(worker.worker_id, slot=worker)
            live = list(self._workers)
        queue = deque()
        for i, (request, deadline) in enumerate(zip(requests, deadlines)):
            req_id = self._next_id
            self._next_id += 1
            state = _Pending(
                index=i,
                enc=(
                    request if isinstance(request, ColumnarQueryRequest)
                    else encode_queries(request.queries)
                ),
                deadline=deadline,
                start=perf_counter(),
            )
            outstanding[req_id] = state
            queue.append((req_id, state))

        def fill(worker: _Worker) -> None:
            # top the worker's window up from the shared queue
            while (
                queue
                and worker.conn is not None
                and len(worker.inflight) < self._WINDOW
            ):
                req_id, state = queue.popleft()
                if req_id not in outstanding:
                    continue  # expired while queued
                try:
                    self._send(worker, req_id, state)
                except (BrokenPipeError, OSError):
                    self._handle_crash(worker, outcomes, outstanding)
                    return

        for worker in self._workers:
            fill(worker)
        while outstanding:
            self._expire_overdue(outcomes, outstanding, canceled)
            if not outstanding:
                break
            timeout = None
            remaining = [
                s.deadline.remaining()
                for s in outstanding.values()
                if s.deadline is not None
            ]
            if remaining:
                timeout = max(min(remaining), 0.0) + 1e-3
            conns = {w.conn: w for w in self._workers if w.conn is not None}
            if not conns:  # every worker down and staying down
                for req_id, state in list(outstanding.items()):
                    attempts = max(state.attempts_spent, 1)
                    outcomes[state.index] = Outcome(
                        None, perf_counter() - state.start, attempts,
                        RequestFailure(
                            WorkerCrashError.__name__, "no live workers",
                            attempts,
                        ),
                    )
                    outstanding.pop(req_id)
                break
            ready = conn_wait(list(conns), timeout=timeout)
            for conn in ready:
                worker = conns[conn]
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._handle_crash(worker, outcomes, outstanding)
                    fill(worker)
                    continue
                req_id = reply[1]
                worker.inflight.pop(req_id, None)
                if req_id in canceled:
                    canceled.discard(req_id)
                    fill(worker)
                    continue
                state = outstanding.pop(req_id, None)
                if state is None:
                    fill(worker)
                    continue  # startup error replies (req_id == -1)
                # results carry the router's clock, submission to reply
                outcomes[state.index] = replace(
                    reply[2], seconds=perf_counter() - state.start
                )
                fill(worker)
        return [
            QueryResult.from_outcome(request, outcome)
            for request, outcome in zip(requests, outcomes)
        ]

    # ------------------------------------------------------------------
    # public API (QueryService-shaped)
    # ------------------------------------------------------------------
    def run_batch(
        self,
        requests: Sequence[Union[QueryRequest, ColumnarQueryRequest]],
    ) -> List[QueryResult]:
        """Execute every request across the pool; request-order results.

        Accepts :class:`~repro.workloads.service.QueryRequest` batches
        (encoded at the door) or native
        :class:`~repro.serving.protocol.ColumnarQueryRequest` batches
        (zero per-query Python in the router).  Same failure contract
        as the single-process service: per-request errors come back
        as structured values on the affected results, and only
        :class:`~repro.reliability.ServiceOverloadedError` raises.
        """
        requests = list(requests)
        if not requests:
            return []
        with self._lock:
            if self._closed:
                raise ValueError("service is closed")
            with self._guard.admit(len(requests)) as deadlines, \
                    profiler.timer("serving.router.run_batch"):
                return self._event_loop(requests, deadlines)

    def run_workload(
        self,
        config: WorkloadConfig,
        *,
        batch_size: int = 1024,
    ) -> Tuple[WorkloadReport, List[QueryResult]]:
        """Generate a workload mix and replay it across the pool.

        Mirrors :meth:`QueryService.run_workload`: same generator,
        same deterministic query sequence, same report shape — but
        the requests cross the tier as columnar batches (encoded once
        here; no per-query Python in serving beyond encoding).  The
        report aggregates completed requests only.
        """
        return replay_workload(
            self.run_batch, self.graph, config, batch_size, encode_queries
        )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def worker_stats(self) -> List[Dict]:
        """Per-worker stats RPC: plan cache, residency, fault counters.

        Each entry is the worker's own report:
        ``{"worker_id", "respawns", "plan_cache": {...},
        "resident_copy_bytes", "fault_points"}`` —
        ``resident_copy_bytes`` is 0 for every worker (the
        one-resident-copy invariant, asserted in tests and by the
        throughput bench).  Dead-and-not-yet-respawned workers are
        skipped.
        """
        with self._lock:
            if self._closed:
                raise ValueError("service is closed")
            pending: List[Tuple[_Worker, int]] = []
            for worker in self._workers:
                if worker.conn is None:
                    continue
                req_id = self._next_id
                self._next_id += 1
                try:
                    worker.conn.send(("stats", req_id))
                    pending.append((worker, req_id))
                except (BrokenPipeError, OSError):
                    self._reap(worker)
            stats: List[Dict] = []
            for worker, req_id in pending:
                try:
                    if not worker.conn.poll(5.0):
                        continue  # pragma: no cover - stuck worker
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    self._reap(worker)
                    continue
                if reply[0] != "stats" or reply[1] != req_id:
                    continue  # pragma: no cover - protocol skew
                payload = dict(reply[2])
                payload["worker_id"] = worker.worker_id
                payload["respawns"] = worker.respawns
                stats.append(payload)
            return stats

    def plan_cache_stats(self) -> PlanCacheStats:
        """Pool-aggregate plan-cache counters (summed across workers).

        The per-worker breakdown is available via
        :meth:`worker_stats`; this aggregate keeps the
        :meth:`QueryService.plan_cache_stats` shape so operators and
        the ``verify-queries`` CLI read one schema for both tiers.
        """
        totals = dict.fromkeys(
            ("hits", "misses", "evictions", "resident_plans",
             "resident_bytes", "bypasses"), 0
        )
        for entry in self.worker_stats():
            for key in totals:
                totals[key] += int(entry["plan_cache"][key])
        return PlanCacheStats(**totals)

    def admission_stats(self):
        """Pending/admitted/shed counters of the bounded queue."""
        return self._guard.admission_stats()

    def shared_memory_stats(self) -> Dict:
        """The one-resident-copy accounting, as numbers.

        ``segment_bytes`` is the single shared block (the only
        resident copy); ``worker_resident_bytes`` sums the column
        bytes workers own outright — 0 by construction.
        """
        workers = self.worker_stats()
        return {
            "segment_name": self.segment.name,
            "segment_bytes": self.segment.nbytes,
            "num_workers": len(workers),
            "worker_resident_bytes": sum(
                int(w["resident_copy_bytes"]) for w in workers
            ),
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, then unlink the segment (idempotent).

        Safe mid-batch from the owning thread's perspective: workers
        that ignore the stop (or are already dead) are terminated,
        and the segment is unlinked regardless — after ``close()``
        returns, no shared-memory name owned by this service exists.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in getattr(self, "_workers", []):
                if worker.conn is not None:
                    try:
                        worker.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
            for worker in getattr(self, "_workers", []):
                if worker.process is not None:
                    worker.process.join(timeout=2.0)
                    if worker.process.is_alive():
                        worker.process.terminate()
                        worker.process.join(timeout=2.0)
                self._reap(worker)
            self.segment.close()

    def __enter__(self) -> "ProcessQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ProcessQueryService({state}, workers={self.num_workers}, "
            f"start_method={self.start_method!r}, "
            f"segment_bytes={self.segment.nbytes})"
        )
