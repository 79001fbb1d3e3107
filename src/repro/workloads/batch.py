"""Batched execution of workload query mixes — one columnar path.

:func:`execute_workload` (in :mod:`repro.workloads.generator`)
dispatches one Python call per query — the reference semantics.  This
module is the bulk twin, and every batched path runs through it: a
query batch is packed **once** into a :class:`ColumnarQueryRequest`
(eight flat arrays) and each query class is answered with **one**
vectorized kernel call on its column selection
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

**One table.** :data:`ARG_SLOTS` gives each
:class:`~repro.workloads.generator.QueryKind` the columns its
``Query.args`` occupy; :func:`encode_queries`, :func:`decode_queries`
and the kernel dispatch all read it, and ``_batch_kernel`` is the one
place a kind picks its kernel.  A new kind is one table row plus one
kernel branch.

Column layout (all length ``n``; unused slots are 0 / 0.0):

========  ========  =====================================================
column    dtype     meaning
========  ========  =====================================================
kinds     int8      :data:`KIND_CODES` index of the query class
ts        int64     primary snapshot (``Query.t``)
a0..a3    int64     integer args: node / u, v / dim / k / t0, t1
f0, f1    float64   float args: ATTRIBUTE_RANGE ``lo`` / ``hi``
========  ========  =====================================================

The same columns are the multi-process tier's wire format
(:mod:`repro.serving.protocol` re-exports them): the router encodes,
the worker calls :func:`execute_encoded`.  In-process callers —
:class:`~repro.workloads.service.QueryService`,
:func:`run_queries_batched` — take the identical path.

**Graceful degradation** (``docs/reliability.md``): the batched
kernels are an optimization, and the per-query dispatch is their
pinned reference twin — so a kernel failure is recoverable, not
fatal.  With ``degrade`` (:func:`run_queries_resilient`, the
services), a faulting batched kernel (the ``query.batch_kernel``
injection point provokes this in chaos tests) has its query class
answered through the per-query loop instead: identical results,
degraded throughput, and the degradation is reported so operators can
see it happening.  Degradation is the only way a batched path reaches
per-query dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from time import perf_counter
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.reliability import fault_injector
from repro.workloads.engine import GraphQueryEngine
from repro.workloads.generator import Query, QueryKind, _run_query

__all__ = [
    "ARG_SLOTS",
    "KIND_CODES",
    "ColumnarQueryRequest",
    "decode_queries",
    "encode_queries",
    "execute_encoded",
    "run_queries_batched",
    "run_queries_resilient",
]

#: Wire code → query class, in enum definition order.  Codes are the
#: protocol's stable surface: appending new kinds is compatible,
#: reordering is not (pinned by ``tests/serving/test_protocol.py``).
KIND_CODES: Tuple[QueryKind, ...] = tuple(QueryKind)

#: keyed by the member's value: a str hash is cached, while hashing an
#: Enum member runs the pure-Python ``Enum.__hash__`` on every lookup
_CODE_OF: Dict[str, int] = {k.value: i for i, k in enumerate(KIND_CODES)}

#: The one per-kind table: the column holding each ``Query.args``
#: position, in argument order (``ts`` always holds ``Query.t``; for
#: TEMPORAL_REACH / EDGE_WINDOW that is ``t0``, as the generator sets).
ARG_SLOTS: Dict[QueryKind, Tuple[str, ...]] = {
    QueryKind.OUT_NEIGHBORS: ("a0",),                # node
    QueryKind.IN_NEIGHBORS: ("a0",),                 # node
    QueryKind.HAS_EDGE: ("a0", "a1"),                # u, v
    QueryKind.TWO_HOP: ("a0", "a1"),                 # node, k
    QueryKind.TRIANGLE_COUNT: (),
    QueryKind.ATTRIBUTE_RANGE: ("a0", "f0", "f1"),   # dim, lo, hi
    QueryKind.DEGREE_TOPK: ("a0",),                  # k
    QueryKind.TEMPORAL_REACH: ("a0", "a1", "a2", "a3"),  # u, v, t0, t1
    QueryKind.EDGE_WINDOW: ("a0", "a1", "a2", "a3"),     # u, v, t0, t1
}

#: Every column after ``kinds``, in wire order, with its dtype.
_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("ts", np.int64), ("a0", np.int64), ("a1", np.int64),
    ("a2", np.int64), ("a3", np.int64), ("f0", np.float64),
    ("f1", np.float64),
)


@dataclass(frozen=True)
class ColumnarQueryRequest:
    """One request batch as parallel columns — the native batch format.

    Immutable and cheap to ship: eight flat arrays, no Python objects
    per query.  Build one with :func:`encode_queries` (or construct
    the columns directly for synthetic workloads — the throughput
    bench does, keeping per-query Python entirely off the hot path).
    """

    kinds: np.ndarray
    ts: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    f0: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        n = len(self.kinds)
        if n == 0:
            raise ValueError(
                "a ColumnarQueryRequest needs at least one query"
            )
        for name, _ in _COLUMNS:
            col = getattr(self, name)
            if len(col) != n:
                raise ValueError(
                    f"column {name!r} has length {len(col)}, "
                    f"expected {n}"
                )
        if self.kinds.min() < 0 or self.kinds.max() >= len(KIND_CODES):
            raise ValueError("kind code out of range")

    def __len__(self) -> int:
        return len(self.kinds)

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The eight columns in wire order (for pipe transfer)."""
        return (
            self.kinds, self.ts, self.a0, self.a1, self.a2, self.a3,
            self.f0, self.f1,
        )

    @classmethod
    def from_columns(
        cls, columns: Sequence[np.ndarray]
    ) -> "ColumnarQueryRequest":
        return cls(*columns)


def encode_queries(queries: Sequence[Query]) -> ColumnarQueryRequest:
    """Pack a query sequence into parallel columns.

    One pass each for the kind codes, ``ts`` and the args; then every
    kind's :data:`ARG_SLOTS` columns fill with one ``np.fromiter`` per
    slot over that kind's group.
    """
    n = len(queries)
    if n == 0:
        raise ValueError("cannot encode an empty query sequence")
    kinds = np.fromiter(
        map(_CODE_OF.__getitem__, map(attrgetter("kind._value_"), queries)),
        np.int8, n,
    )
    cols = {name: np.zeros(n, dtype=dtype) for name, dtype in _COLUMNS}
    cols["ts"][:] = np.fromiter(map(attrgetter("t"), queries), np.int64, n)
    args = list(map(attrgetter("args"), queries))
    for code in np.unique(kinds).tolist():
        slots = ARG_SLOTS[KIND_CODES[code]]
        if not slots:
            continue
        idx = np.flatnonzero(kinds == code)
        group = [args[i] for i in idx.tolist()]
        for j, slot in enumerate(slots):
            col = cols[slot]
            col[idx] = np.fromiter(
                map(itemgetter(j), group), col.dtype, len(group)
            )
    return ColumnarQueryRequest(kinds, **cols)


def _decode_one(enc: ColumnarQueryRequest, i: int) -> Query:
    kind = KIND_CODES[int(enc.kinds[i])]
    args = tuple(getattr(enc, slot)[i].item() for slot in ARG_SLOTS[kind])
    return Query(kind=kind, t=int(enc.ts[i]), args=args)


def decode_queries(enc: ColumnarQueryRequest) -> List[Query]:
    """Exact inverse of :func:`encode_queries`."""
    return [_decode_one(enc, i) for i in range(len(enc))]


def _batch_kernel(
    engine: GraphQueryEngine,
    kind: QueryKind,
    ts: np.ndarray,
    args: Sequence[np.ndarray],
) -> np.ndarray:
    """Cardinalities of one kind's group — the batched twin of
    :func:`~repro.workloads.generator._run_query`, with ``args`` the
    group's :data:`ARG_SLOTS` columns in argument order."""
    if kind == QueryKind.OUT_NEIGHBORS:
        return engine.batch_degrees(args[0], ts, "out")
    if kind == QueryKind.IN_NEIGHBORS:
        return engine.batch_degrees(args[0], ts, "in")
    if kind == QueryKind.HAS_EDGE:
        return engine.batch_has_edge(*args, ts).astype(np.int64)
    if kind == QueryKind.TWO_HOP:
        nodes, ks = args
        return engine.batch_two_hop(nodes, ts, ks)
    if kind == QueryKind.TRIANGLE_COUNT:
        return engine.batch_triangle_counts(ts)
    if kind == QueryKind.ATTRIBUTE_RANGE:
        return engine.batch_attribute_range_counts(ts, *args)
    if kind == QueryKind.DEGREE_TOPK:
        offsets, _ = engine.batch_degree_topk(ts, args[0])
        return np.diff(offsets)
    if kind == QueryKind.TEMPORAL_REACH:
        return engine.batch_temporal_reach(*args).astype(np.int64)
    if kind == QueryKind.EDGE_WINDOW:
        return engine.batch_edge_window_counts(*args)
    raise AssertionError(kind)  # pragma: no cover - enum is closed


def execute_encoded(
    engine: GraphQueryEngine,
    enc: ColumnarQueryRequest,
    *,
    degrade: bool = True,
) -> Tuple[np.ndarray, Dict[str, float], FrozenSet[str]]:
    """Execute an encoded batch: the execution core of every batched path.

    Returns ``(cardinalities, seconds_by_kind, degraded_kinds)``:
    one int64 cardinality per query in query order (bit-identical to
    the per-query reference loop), the wall-clock each query class
    consumed (one kernel call per class), and the classes that fell
    back.  Classes run in first-appearance order, and the
    ``query.batch_kernel`` injection point fires once per class keyed
    by its name, so chaos schedules behave identically in every
    tier.  With ``degrade`` a faulting class is re-answered per query
    and named in ``degraded_kinds``; without it the exception
    propagates.
    """
    codes, first = np.unique(enc.kinds, return_index=True)
    cardinalities = np.zeros(len(enc), dtype=np.int64)
    seconds: Dict[str, float] = {}
    degraded: List[str] = []
    for code in codes[np.argsort(first)].tolist():
        kind = KIND_CODES[code]
        idx = np.flatnonzero(enc.kinds == code)
        start = perf_counter()
        try:
            fault_injector.fire("query.batch_kernel", key=kind.value)
            cardinalities[idx] = _batch_kernel(
                engine, kind, enc.ts[idx],
                [getattr(enc, slot)[idx] for slot in ARG_SLOTS[kind]],
            )
        except Exception:
            if not degrade:
                raise
            # batched kernel faulted: fall back to its pinned per-query
            # reference twin — identical results, degraded throughput
            degraded.append(kind.value)
            for i in idx.tolist():
                cardinalities[i] = _run_query(engine, _decode_one(enc, i))
        seconds[kind.value] = perf_counter() - start
    return cardinalities, seconds, frozenset(degraded)


def _execute(
    engine: GraphQueryEngine, queries: Sequence[Query], degrade: bool
) -> Tuple[np.ndarray, Dict[str, float], FrozenSet[str]]:
    if not queries:  # the columnar form needs at least one query
        return np.zeros(0, dtype=np.int64), {}, frozenset()
    return execute_encoded(engine, encode_queries(queries), degrade=degrade)


def run_queries_batched(
    engine: GraphQueryEngine, queries: Sequence[Query]
) -> Tuple[np.ndarray, Dict[str, float]]:
    """Execute a query mix in bulk; cardinalities come back in query order.

    Returns ``(cardinalities, seconds_by_kind)`` as
    :func:`execute_encoded` does (bit-identical to looping
    ``execute_workload``'s per-query dispatch — pinned by
    ``tests/workloads/test_batch.py``).  A batched-kernel failure
    propagates; use :func:`run_queries_resilient` for the
    degrade-don't-die form.
    """
    cardinalities, seconds, _ = _execute(engine, queries, degrade=False)
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
    return _execute(engine, queries, degrade=True)

