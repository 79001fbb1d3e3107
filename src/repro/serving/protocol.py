"""Columnar wire protocol between the router and its workers.

The wire format is the batch format every batched path already runs
on: a :class:`ColumnarQueryRequest` — eight flat numpy arrays, laid
out by the per-kind column table
:data:`~repro.workloads.batch.ARG_SLOTS` (see
:mod:`repro.workloads.batch` for the column layout).  A batch of
:class:`~repro.workloads.generator.Query` objects is encoded **once**
at the router and everything downstream (pipe transfer, worker-side
kernel dispatch, result return) is array-at-a-time:

* no pickling of ``Query`` objects (enum + tuple pickle per query
  would cost more than the query itself at 1M q/s);
* the worker runs :func:`execute_encoded` — the same call the
  single-process service makes — so every kind goes to its batched
  kernel as a masked column selection and no per-query Python runs
  on the worker hot path (queries decode one at a time only on the
  degrade path);
* results come back as one int64 cardinality column, in query order.

:func:`encode_queries` / :func:`decode_queries` are exact inverses
and :data:`KIND_CODES` are the stable wire codes (pinned by
``tests/serving/test_protocol.py``), so the tier accepts either
representation at the API edge and stays bit-identical to the
single-process service — including ``query.batch_kernel`` fault
arrivals and degradation.  The implementation lives in
:mod:`repro.workloads.batch`; this module names the wire surface.
"""

from repro.workloads.batch import (
    KIND_CODES,
    ColumnarQueryRequest,
    decode_queries,
    encode_queries,
    execute_encoded,
)

__all__ = [
    "KIND_CODES",
    "ColumnarQueryRequest",
    "decode_queries",
    "encode_queries",
    "execute_encoded",
]
