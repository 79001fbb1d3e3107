"""Batched execution of workload query mixes.

:func:`execute_workload` (in :mod:`repro.workloads.generator`)
dispatches one Python call per query — the reference semantics.  This
module is the bulk twin: a mixed workload is grouped by query class
and every class is answered with **one** vectorized kernel call
(:meth:`~repro.workloads.engine.GraphQueryEngine.batch_degrees`,
:meth:`~repro.workloads.engine.GraphQueryEngine.batch_has_edge`,
:meth:`~repro.workloads.engine.GraphQueryEngine.batch_edge_window_counts`,
:meth:`~repro.workloads.engine.GraphQueryEngine.batch_attribute_range_counts`,
:meth:`~repro.workloads.engine.GraphQueryEngine.batch_two_hop`,
:meth:`~repro.workloads.engine.GraphQueryEngine.batch_temporal_reach`,
:meth:`~repro.workloads.engine.GraphQueryEngine.batch_triangle_counts`,
:meth:`~repro.workloads.engine.GraphQueryEngine.batch_degree_topk`).
Result cardinalities are bit-identical to the per-query loop in query
order — only the dispatch cost changes.

This is the execution core of
:class:`~repro.workloads.service.QueryService`; it is also usable
directly for single-threaded bulk replay.

**Graceful degradation** (``docs/reliability.md``): the batched
kernels are an optimization, and the per-query dispatch is their
pinned reference twin — so a kernel failure is recoverable, not
fatal.  :func:`run_queries_resilient` catches a faulting batched
kernel (the ``query.batch_kernel`` injection point provokes this in
chaos tests) and answers that query class through the per-query loop
instead: identical results, degraded throughput, and the degradation
is reported so operators can see it happening.  Degradation is the
only way a batched path reaches per-query dispatch.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.reliability import fault_injector
from repro.workloads.engine import GraphQueryEngine
from repro.workloads.generator import (
    Query,
    QueryKind,
    WorkloadReport,
    _run_query,
)

__all__ = [
    "run_queries_batched",
    "run_queries_resilient",
    "execute_workload_batched",
]


def _dispatch_kind(
    engine: GraphQueryEngine,
    queries: Sequence[Query],
    kind: QueryKind,
    indices: List[int],
) -> np.ndarray:
    """Cardinalities of one query-class group, via its batched kernel."""
    fault_injector.fire("query.batch_kernel", key=kind.value)
    group = [queries[i] for i in indices]
    if kind in (QueryKind.OUT_NEIGHBORS, QueryKind.IN_NEIGHBORS):
        nodes = np.fromiter((q.args[0] for q in group), np.int64, len(group))
        ts = np.fromiter((q.t for q in group), np.int64, len(group))
        direction = "out" if kind == QueryKind.OUT_NEIGHBORS else "in"
        return engine.batch_degrees(nodes, ts, direction)
    if kind == QueryKind.HAS_EDGE:
        src = np.fromiter((q.args[0] for q in group), np.int64, len(group))
        dst = np.fromiter((q.args[1] for q in group), np.int64, len(group))
        ts = np.fromiter((q.t for q in group), np.int64, len(group))
        return engine.batch_has_edge(src, dst, ts).astype(np.int64)
    if kind == QueryKind.EDGE_WINDOW:
        src = np.fromiter((q.args[0] for q in group), np.int64, len(group))
        dst = np.fromiter((q.args[1] for q in group), np.int64, len(group))
        t0 = np.fromiter((q.args[2] for q in group), np.int64, len(group))
        t1 = np.fromiter((q.args[3] for q in group), np.int64, len(group))
        return engine.batch_edge_window_counts(src, dst, t0, t1)
    if kind == QueryKind.ATTRIBUTE_RANGE:
        ts = np.fromiter((q.t for q in group), np.int64, len(group))
        dims = np.fromiter((q.args[0] for q in group), np.int64, len(group))
        lo = np.fromiter((q.args[1] for q in group), np.float64, len(group))
        hi = np.fromiter((q.args[2] for q in group), np.float64, len(group))
        return engine.batch_attribute_range_counts(ts, dims, lo, hi)
    if kind == QueryKind.TWO_HOP:
        nodes = np.fromiter((q.args[0] for q in group), np.int64, len(group))
        ks = np.fromiter((q.args[1] for q in group), np.int64, len(group))
        ts = np.fromiter((q.t for q in group), np.int64, len(group))
        return engine.batch_two_hop(nodes, ts, ks)
    if kind == QueryKind.TEMPORAL_REACH:
        src = np.fromiter((q.args[0] for q in group), np.int64, len(group))
        dst = np.fromiter((q.args[1] for q in group), np.int64, len(group))
        t0 = np.fromiter((q.args[2] for q in group), np.int64, len(group))
        t1 = np.fromiter((q.args[3] for q in group), np.int64, len(group))
        return engine.batch_temporal_reach(src, dst, t0, t1).astype(np.int64)
    if kind == QueryKind.TRIANGLE_COUNT:
        ts = np.fromiter((q.t for q in group), np.int64, len(group))
        return engine.batch_triangle_counts(ts)
    if kind == QueryKind.DEGREE_TOPK:
        ts = np.fromiter((q.t for q in group), np.int64, len(group))
        ks = np.fromiter((q.args[0] for q in group), np.int64, len(group))
        offsets, _ = engine.batch_degree_topk(ts, ks)
        return np.diff(offsets)
    raise AssertionError(kind)  # pragma: no cover - enum is closed


def run_groups(
    engine: GraphQueryEngine,
    n: int,
    groups: Iterable[Tuple[QueryKind, Sequence[int]]],
    dispatch: Callable[[QueryKind, Sequence[int]], np.ndarray],
    query_at: Callable[[int], Query],
    degrade: bool,
) -> Tuple[np.ndarray, Dict[str, float], FrozenSet[str]]:
    """Grouped execution core of every batched path.

    ``groups`` are ``(kind, query positions)`` in first-seen order;
    ``dispatch(kind, positions)`` runs a group's batched kernel.  With
    ``degrade``, a group whose kernel raises is re-answered per query
    (``query_at(i)`` gives the ``i``-th query) and named in the
    returned degraded kinds; without it the exception propagates.
    """
    cardinalities = np.zeros(n, dtype=np.int64)
    seconds: Dict[str, float] = {}
    degraded: List[str] = []
    for kind, indices in groups:
        start = perf_counter()
        try:
            cardinalities[indices] = dispatch(kind, indices)
        except Exception:
            if not degrade:
                raise
            # batched kernel faulted: fall back to its pinned per-query
            # reference twin — identical results, degraded throughput
            degraded.append(kind.value)
            for i in indices:
                cardinalities[i] = _run_query(engine, query_at(i))
        seconds[kind.value] = seconds.get(kind.value, 0.0) + (
            perf_counter() - start
        )
    return cardinalities, seconds, frozenset(degraded)


def _run_grouped(
    engine: GraphQueryEngine,
    queries: Sequence[Query],
    degrade: bool,
) -> Tuple[np.ndarray, Dict[str, float], FrozenSet[str]]:
    groups: Dict[QueryKind, List[int]] = {}
    for i, q in enumerate(queries):
        groups.setdefault(q.kind, []).append(i)
    return run_groups(
        engine, len(queries), groups.items(),
        partial(_dispatch_kind, engine, queries), queries.__getitem__,
        degrade,
    )


def run_queries_batched(
    engine: GraphQueryEngine, queries: Sequence[Query]
) -> Tuple[np.ndarray, Dict[str, float]]:
    """Execute a query mix in bulk; cardinalities come back in query order.

    Returns ``(cardinalities, seconds_by_kind)``: one int64 result
    cardinality per query (bit-identical to looping
    ``execute_workload``'s per-query dispatch — pinned by
    ``tests/workloads/test_batch.py``) and the wall-clock each query
    class consumed (one kernel call per class).  A batched-kernel
    failure propagates;
    use :func:`run_queries_resilient` for the degrade-don't-die form.
    """
    cardinalities, seconds, _ = _run_grouped(engine, queries, degrade=False)
    return cardinalities, seconds


def run_queries_resilient(
    engine: GraphQueryEngine, queries: Sequence[Query]
) -> Tuple[np.ndarray, Dict[str, float], FrozenSet[str]]:
    """Degrading twin of :func:`run_queries_batched`.

    Identical cardinalities, but a query class whose batched kernel
    raises is re-answered through the per-query reference dispatch
    instead of failing the request.  Returns ``(cardinalities,
    seconds_by_kind, degraded_kinds)`` where ``degraded_kinds`` names
    the classes that fell back (empty in the fault-free case).
    """
    return _run_grouped(engine, queries, degrade=True)


def execute_workload_batched(
    engine: GraphQueryEngine, queries: Sequence[Query]
) -> WorkloadReport:
    """Batched twin of :func:`~repro.workloads.generator.execute_workload`.

    Same report shape and the same per-class result cardinalities;
    ``latency_by_kind`` amortizes each class's batched wall-clock over
    its query count (the number a serving operator compares against
    the per-query dispatch profile).  Raises ``ValueError`` on an
    empty workload, matching the per-query executor.
    """
    if not queries:
        raise ValueError("empty workload")
    start = perf_counter()
    cardinalities, seconds = run_queries_batched(engine, queries)
    total = perf_counter() - start
    return WorkloadReport.aggregate(
        [([q.kind.value for q in queries], cardinalities, seconds)], total
    )
