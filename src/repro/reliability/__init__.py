"""``repro.reliability`` — fault tolerance for the serving stack.

The reliability layer makes the ROADMAP's "millions of users" posture
survivable: deterministic fault injection for chaos tests, per-request
deadlines and seeded-backoff retries, bounded request queues with
structured load shedding, and crash-safe artifacts and ingestion.  The
design contract (fault model, injection-point registry, degradation
matrix, artifact checksums, checkpoint format) lives in
``docs/reliability.md``; the invariant the chaos suite pins is that
**every request that completes under injected faults is bit-identical
to the fault-free run**, and overload/expiry always surface as typed
errors — never a hang.

Five modules:

* :mod:`~repro.reliability.faults` — the process-global, seeded
  :data:`fault_injector` (same shape as ``repro.profiling.profiler``:
  near-zero overhead while disarmed).
* :mod:`~repro.reliability.retry` — :class:`Deadline` +
  :class:`RetryPolicy` (exponential backoff, deterministic jitter).
* :mod:`~repro.reliability.backpressure` —
  :class:`AdmissionController` (bounded in-flight requests,
  :class:`ServiceOverloadedError` with retry-after).
* :mod:`~repro.reliability.errors` — the typed failure vocabulary,
  including the per-request :class:`RequestFailure` value services
  attach to results instead of poisoning sibling requests.
* :mod:`~repro.reliability.guard` — the one guarded-request core all
  four request services run on.
"""

from repro.reliability.backpressure import AdmissionController
from repro.reliability.errors import (
    CheckpointError,
    DeadlineExceededError,
    InjectedFault,
    ReliabilityError,
    RequestFailure,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.reliability.faults import FaultInjector, FaultPlan, fault_injector
from repro.reliability.retry import Deadline, RetryPolicy

__all__ = [
    "AdmissionController",
    "CheckpointError",
    "Deadline",
    "DeadlineExceededError",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "ReliabilityError",
    "RequestFailure",
    "RetryPolicy",
    "ServiceOverloadedError",
    "WorkerCrashError",
    "fault_injector",
]
