"""``repro.serving`` — the multi-process query-serving tier.

:class:`~repro.workloads.service.QueryService` is deliberately
single-process: its value is one shared in-memory store and plan
cache, and the batched kernels release the GIL — but the *dispatch*
around them (query grouping, result assembly, Python-level request
handling) does not, so one process tops out near one core of useful
work regardless of pool width.  This package is the next scale step
the ROADMAP names: a long-lived serving tier fronting N worker
processes that map the columnar store zero-copy from shared memory,
so throughput scales with cores while the graph stays resident
exactly once.  Three layers (contract in ``docs/workloads.md``):

* :mod:`~repro.serving.segments` — **shared-memory store segments**:
  :class:`SharedStoreSegment` exports a
  :class:`~repro.graph.store.TemporalEdgeStore`'s int columns,
  per-step offsets and ``(T, N, F)`` attribute block into one
  ``multiprocessing.shared_memory`` block described by a small
  picklable :class:`StoreManifest` (dtype/shape/offset per array);
  :func:`attach_store` reconstructs a read-only zero-copy store view
  in a worker.  :func:`resident_copy_bytes` is the owned-bytes
  accounting that lets tests assert the one-resident-copy invariant.
* :mod:`~repro.serving.worker` — **worker pool**: each worker is a
  long-lived process running the full existing engine
  (:class:`~repro.workloads.engine.GraphQueryEngine` over the
  attached store) with its own bounded
  :class:`~repro.workloads.cache.SnapshotPlanCache`, fed over a
  small columnar protocol (:mod:`~repro.serving.protocol`) that
  ships query batches as the parallel column arrays the ``batch_*``
  kernels already consume and returns columnar results.
* :mod:`~repro.serving.router` — **router**:
  :class:`ProcessQueryService` hash-routes request batches across
  workers (the deterministic per-request contract makes results
  placement-independent), reassembles results in request order, and
  carries the shared request guard (:mod:`repro.reliability.guard`)
  across the process boundary, adding worker-death → respawn with
  per-request :class:`~repro.reliability.RequestFailure` isolation.

The tier's invariant mirrors the single-process service: every
request that completes is **bit-identical** to the same request run
through a single-process :class:`QueryService` (asserted by
``tests/serving/`` and the ``serving-smoke`` CI job), and the store
columns are resident exactly once — in the shared segment — no
matter how many workers serve them.
"""

from repro.serving.protocol import (
    ColumnarQueryRequest,
    decode_queries,
    encode_queries,
)
from repro.serving.router import ProcessQueryService
from repro.serving.segments import (
    SharedStoreSegment,
    StoreManifest,
    attach_store,
    resident_copy_bytes,
)
from repro.serving.worker import WorkerConfig

__all__ = [
    "ColumnarQueryRequest",
    "ProcessQueryService",
    "SharedStoreSegment",
    "StoreManifest",
    "WorkerConfig",
    "attach_store",
    "decode_queries",
    "encode_queries",
    "resident_copy_bytes",
]
