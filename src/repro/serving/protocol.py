"""Columnar wire protocol between the router and its workers.

The single-process serving stack already answers batched query
classes from parallel column arrays
(:meth:`~repro.workloads.engine.GraphQueryEngine.batch_has_edge` and
friends); what crosses the process boundary here is exactly that
representation.  A batch of
:class:`~repro.workloads.generator.Query` objects is encoded **once**
into a :class:`ColumnarQueryRequest` — eight flat numpy arrays —
and everything downstream (pipe transfer, worker-side kernel
dispatch, result return) is array-at-a-time:

* no pickling of ``Query`` objects (enum + tuple pickle per query
  would cost more than the query itself at 1M q/s);
* the worker feeds masked column selections *directly* into the
  ``batch_*`` kernels — including the frontier-vectorized traversal
  kernels (``batch_two_hop`` / ``batch_temporal_reach``) and the
  plan-cached analytics (``batch_triangle_counts`` /
  ``batch_degree_topk``) — so no per-query Python runs on the worker
  hot path (queries decode one at a time only on the degrade path);
* results come back as one int64 cardinality column, in query order.

Column layout (all length ``n``):

========  ========  =====================================================
column    dtype     meaning
========  ========  =====================================================
kinds     int8      :data:`KIND_CODES` index of the query class
ts        int64     primary snapshot (``Query.t``)
a0..a3    int64     integer args: node / u, v / dim / k / t0, t1
f0, f1    float64   float args: ATTRIBUTE_RANGE ``lo`` / ``hi``
========  ========  =====================================================

Per-kind argument packing (unused slots are 0 / 0.0):

* OUT_NEIGHBORS / IN_NEIGHBORS — ``a0`` = node
* HAS_EDGE — ``a0`` = u, ``a1`` = v
* TWO_HOP — ``a0`` = node, ``a1`` = k
* TRIANGLE_COUNT — (no args)
* ATTRIBUTE_RANGE — ``a0`` = dim, ``f0`` = lo, ``f1`` = hi
* DEGREE_TOPK — ``a0`` = k
* TEMPORAL_REACH / EDGE_WINDOW — ``a0`` = u, ``a1`` = v,
  ``a2`` = t0, ``a3`` = t1 (and ``ts`` = t0, as the generator sets it)

:func:`encode_queries` / :func:`decode_queries` are exact inverses
(pinned by ``tests/serving/test_protocol.py``), so the tier can
accept either representation at the API edge and the executors stay
bit-identical to the single-process service.

:func:`execute_encoded` is the worker-side execution core: grouped
kernel dispatch straight off the columns, with the same
``query.batch_kernel`` fault-injection point and the same
degrade-to-per-query fallback as
:func:`~repro.workloads.batch.run_queries_resilient` — a faulting
kernel class falls back to the pinned per-query reference twin with
identical results, and the degradation is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.reliability import fault_injector
from repro.workloads.batch import run_groups
from repro.workloads.engine import GraphQueryEngine
from repro.workloads.generator import Query, QueryKind

__all__ = [
    "KIND_CODES",
    "ColumnarQueryRequest",
    "decode_queries",
    "encode_queries",
    "execute_encoded",
]

#: Wire code → query class, in enum definition order.  Codes are the
#: protocol's stable surface: appending new kinds is compatible,
#: reordering is not (pinned by ``tests/serving/test_protocol.py``).
KIND_CODES: Tuple[QueryKind, ...] = tuple(QueryKind)

_CODE_OF: Dict[QueryKind, int] = {k: i for i, k in enumerate(KIND_CODES)}

#: int args per kind → (a0, a1, a2, a3) slot count, for validation.
_INT_COLS = ("a0", "a1", "a2", "a3")


@dataclass(frozen=True)
class ColumnarQueryRequest:
    """One request batch as parallel columns — the tier's native format.

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
        for name in ("ts", *_INT_COLS, "f0", "f1"):
            col = getattr(self, name)
            if len(col) != n:
                raise ValueError(
                    f"column {name!r} has length {len(col)}, "
                    f"expected {n}"
                )
        if n == 0:
            raise ValueError(
                "a ColumnarQueryRequest needs at least one query"
            )
        if self.kinds.size and (
            self.kinds.min() < 0 or self.kinds.max() >= len(KIND_CODES)
        ):
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
    """Pack a query sequence into parallel columns (one pass)."""
    n = len(queries)
    if n == 0:
        raise ValueError("cannot encode an empty query sequence")
    kinds = np.zeros(n, dtype=np.int8)
    ts = np.zeros(n, dtype=np.int64)
    ints = np.zeros((4, n), dtype=np.int64)
    f0 = np.zeros(n, dtype=np.float64)
    f1 = np.zeros(n, dtype=np.float64)
    for i, q in enumerate(queries):
        kinds[i] = _CODE_OF[q.kind]
        ts[i] = q.t
        if q.kind == QueryKind.ATTRIBUTE_RANGE:
            ints[0, i] = q.args[0]
            f0[i] = q.args[1]
            f1[i] = q.args[2]
        else:
            for j, a in enumerate(q.args):
                ints[j, i] = a
    return ColumnarQueryRequest(
        kinds, ts, ints[0], ints[1], ints[2], ints[3], f0, f1
    )


def _decode_one(enc: ColumnarQueryRequest, i: int) -> Query:
    kind = KIND_CODES[int(enc.kinds[i])]
    t = int(enc.ts[i])
    if kind in (QueryKind.OUT_NEIGHBORS, QueryKind.IN_NEIGHBORS):
        args: Tuple = (int(enc.a0[i]),)
    elif kind == QueryKind.HAS_EDGE:
        args = (int(enc.a0[i]), int(enc.a1[i]))
    elif kind == QueryKind.TWO_HOP:
        args = (int(enc.a0[i]), int(enc.a1[i]))
    elif kind == QueryKind.TRIANGLE_COUNT:
        args = ()
    elif kind == QueryKind.ATTRIBUTE_RANGE:
        args = (int(enc.a0[i]), float(enc.f0[i]), float(enc.f1[i]))
    elif kind == QueryKind.DEGREE_TOPK:
        args = (int(enc.a0[i]),)
    else:  # TEMPORAL_REACH / EDGE_WINDOW
        args = (
            int(enc.a0[i]), int(enc.a1[i]),
            int(enc.a2[i]), int(enc.a3[i]),
        )
    return Query(kind=kind, t=t, args=args)


def decode_queries(enc: ColumnarQueryRequest) -> List[Query]:
    """Exact inverse of :func:`encode_queries`."""
    return [_decode_one(enc, i) for i in range(len(enc))]


def _dispatch_columns(
    engine: GraphQueryEngine,
    kind: QueryKind,
    enc: ColumnarQueryRequest,
    idx: np.ndarray,
) -> np.ndarray:
    """One batched kernel call straight off the masked columns."""
    fault_injector.fire("query.batch_kernel", key=kind.value)
    if kind in (QueryKind.OUT_NEIGHBORS, QueryKind.IN_NEIGHBORS):
        direction = "out" if kind == QueryKind.OUT_NEIGHBORS else "in"
        return engine.batch_degrees(enc.a0[idx], enc.ts[idx], direction)
    if kind == QueryKind.HAS_EDGE:
        return engine.batch_has_edge(
            enc.a0[idx], enc.a1[idx], enc.ts[idx]
        ).astype(np.int64)
    if kind == QueryKind.EDGE_WINDOW:
        return engine.batch_edge_window_counts(
            enc.a0[idx], enc.a1[idx], enc.a2[idx], enc.a3[idx]
        )
    if kind == QueryKind.ATTRIBUTE_RANGE:
        return engine.batch_attribute_range_counts(
            enc.ts[idx], enc.a0[idx], enc.f0[idx], enc.f1[idx]
        )
    if kind == QueryKind.TWO_HOP:
        return engine.batch_two_hop(enc.a0[idx], enc.ts[idx], enc.a1[idx])
    if kind == QueryKind.TEMPORAL_REACH:
        return engine.batch_temporal_reach(
            enc.a0[idx], enc.a1[idx], enc.a2[idx], enc.a3[idx]
        ).astype(np.int64)
    if kind == QueryKind.TRIANGLE_COUNT:
        return engine.batch_triangle_counts(enc.ts[idx])
    if kind == QueryKind.DEGREE_TOPK:
        offsets, _ = engine.batch_degree_topk(enc.ts[idx], enc.a0[idx])
        return np.diff(offsets)
    raise AssertionError(kind)  # pragma: no cover - enum is closed


def execute_encoded(
    engine: GraphQueryEngine,
    enc: ColumnarQueryRequest,
    *,
    degrade: bool = True,
) -> Tuple[np.ndarray, Dict[str, float], FrozenSet[str]]:
    """Execute an encoded batch; the worker-side hot path.

    Returns ``(cardinalities, seconds_by_kind, degraded_kinds)`` with
    the same semantics as
    :func:`~repro.workloads.batch.run_queries_resilient` — and
    bit-identical cardinalities to it (and therefore to the per-query
    reference loop): every class goes to its kernel as a masked
    column selection.  With
    ``degrade`` a faulting kernel class falls back per-query instead
    of raising; the ``query.batch_kernel`` injection point fires per
    kernel call exactly as in the single-process path, so chaos
    schedules behave identically across tiers.
    """
    # match run_queries_batched's grouping order (first appearance)
    # so per-kind fault arrival counters line up across tiers
    codes, first = np.unique(enc.kinds, return_index=True)
    groups = [
        (KIND_CODES[code], np.flatnonzero(enc.kinds == code))
        for code in codes[np.argsort(first)].tolist()
    ]
    return run_groups(
        engine, len(enc), groups,
        lambda kind, idx: _dispatch_columns(engine, kind, enc, idx),
        lambda i: _decode_one(enc, i), degrade,
    )
