"""Worker side of the multi-process serving tier.

Each worker is one long-lived process that attaches the shared store
segment (:func:`~repro.serving.segments.attach_store` — zero-copy,
zero owned column bytes), builds the full existing engine stack on
top of it (:class:`~repro.workloads.engine.GraphQueryEngine` with its
own bounded :class:`~repro.workloads.cache.SnapshotPlanCache`), and
then answers :class:`~repro.serving.protocol.ColumnarQueryRequest`
batches off a duplex pipe until told to stop.

The worker owns the *execution* half of the reliability contract: each
request runs through :func:`~repro.reliability.guard.guarded_call`,
as :class:`~repro.workloads.service.QueryService` requests do
in-process, with the ``serving.worker`` point keyed ``(worker_id,
request_id, attempt)``, the :class:`WorkerConfig`'s retry policy (the
router only retries worker *death*, so a fault is never retried on
both sides of the pipe) and the remaining budget shipped with the
request.  A request-level failure never kills the worker process.

Process death itself is a first-class chaos scenario: the
``serving.worker_exit`` injection point, when armed with an
``"error"`` plan, makes the worker ``os._exit(13)`` mid-request —
an un-catchable crash from the router's point of view, which is
exactly what the respawn/retry path and the segment-lifecycle tests
need to provoke deterministically.

**Fault determinism across start methods.**  A forked worker inherits
the parent's armed :data:`~repro.reliability.fault_injector`
(arrival counters and all), a spawned worker gets a fresh one — so
the worker never trusts inherited state: it re-arms the injector
(:meth:`~repro.reliability.FaultInjector.rearm`) from the
:meth:`~repro.reliability.FaultInjector.arming` copy carried in
:class:`WorkerConfig`, once at startup.  Chaos schedules are
therefore a pure function of the config under both start methods,
and arrival counters and ``max_triggers`` caps count per worker
process.

Wire messages (see :class:`~repro.serving.router.ProcessQueryService`
for the parent half):

* parent → worker: ``("run", request_id, columns, budget_seconds,
  attempt_base)``, ``("stats", request_id)``, ``("stop",)``

``attempt_base`` is the number of attempts the router already spent
on this request in *previous* worker incarnations (crash resends);
the worker offsets its fault-injection attempt keys by it so a
resend is a fresh arrival to rate-based fault plans rather than a
deterministic replay of the crash that killed its predecessor.
* worker → parent: ``("done", request_id, outcome)`` — the
  request's :class:`~repro.reliability.guard.Outcome`, whose value is
  ``(cardinalities, seconds_by_kind, degraded_kinds)`` and whose
  ``attempts`` include ``attempt_base`` (``request_id`` is -1 when
  the worker could not start) — and ``("stats", request_id, payload)``
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.reliability import Deadline, RetryPolicy, fault_injector
from repro.reliability.faults import FaultPlan
from repro.reliability.guard import Outcome, guarded_call
from repro.serving.protocol import ColumnarQueryRequest, execute_encoded
from repro.serving.segments import StoreManifest, attach_store, resident_copy_bytes

__all__ = ["WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker needs, shipped once at spawn time.

    Picklable and small: the store arrives by shared-memory name
    (``manifest``), not by value.  ``fault_arming`` is the parent's
    :meth:`~repro.reliability.FaultInjector.arming` copy, so chaos
    schedules survive the process boundary (see module docstring); a
    parent with a disarmed injector ships a disabled copy and the
    worker runs clean.
    """

    manifest: StoreManifest
    worker_id: int
    cache_memory_budget_bytes: Optional[int] = None
    retry_policy: Optional[RetryPolicy] = None
    fault_arming: Tuple[Dict[str, FaultPlan], int, bool] = ({}, 0, False)


def _build_engine(config: WorkerConfig, store):
    from repro.graph.dynamic import DynamicAttributedGraph
    from repro.workloads.engine import GraphQueryEngine

    graph = DynamicAttributedGraph.from_store(store)
    engine = GraphQueryEngine(
        graph, cache_memory_budget_bytes=config.cache_memory_budget_bytes
    )
    engine.plans  # materialize the per-worker plan cache eagerly
    return engine


def _exit_if_faulted(key: Tuple) -> None:
    # serving.worker_exit fires before serving.worker on each attempt:
    # a death plan must kill the process even when a serving.worker
    # error plan is armed alongside it
    try:
        fault_injector.fire("serving.worker_exit", key=key)
    except Exception:
        os._exit(13)


def _stats_payload(engine, store) -> Dict:
    s = engine.plans.stats()
    return {
        "plan_cache": {
            "hits": s.hits,
            "misses": s.misses,
            "evictions": s.evictions,
            "resident_plans": s.resident_plans,
            "resident_bytes": s.resident_bytes,
            "bypasses": s.bypasses,
        },
        "resident_copy_bytes": resident_copy_bytes(store),
        "fault_points": fault_injector.stats(),
    }


def worker_main(config: WorkerConfig, conn) -> None:
    """Entry point of one worker process (runs until ``stop`` or EOF).

    ``conn`` is the worker end of a duplex
    ``multiprocessing.Pipe``.  Startup failures (segment already
    unlinked, bad manifest) are reported as a ``("done", -1, outcome)``
    failure reply before exiting, so the router can distinguish "worker could
    not start" from "worker crashed".
    """
    try:
        attached = attach_store(config.manifest)
        fault_injector.rearm(*config.fault_arming)
        engine = _build_engine(config, attached.store)
    except Exception as exc:
        try:
            conn.send(("done", -1, Outcome.failed(exc, 0.0)))
        except Exception:
            pass
        return
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # router went away; exit quietly
            tag = message[0]
            if tag == "stop":
                break
            if tag == "stats":
                conn.send(
                    ("stats", message[1], _stats_payload(engine, attached.store))
                )
                continue
            if tag == "run":
                _, request_id, columns, budget_seconds, attempt_base = message
                outcome = guarded_call(
                    lambda: execute_encoded(
                        engine, ColumnarQueryRequest.from_columns(columns)
                    ),
                    point="serving.worker",
                    index=request_id,
                    scope=(config.worker_id,),
                    deadline=Deadline.after(budget_seconds),
                    policy=config.retry_policy,
                    attempt_base=attempt_base,
                    on_attempt=_exit_if_faulted,
                )
                conn.send(("done", request_id, outcome))
                continue
            error = ValueError(f"unknown message {tag!r}")
            conn.send(("done", -1, Outcome.failed(error, 0.0)))
    finally:
        attached.close()
        try:
            conn.close()
        except Exception:
            pass
