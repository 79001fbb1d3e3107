"""Batched run-serving: many generation requests, one executor pool.

:class:`GenerationService` is the serving front door the ROADMAP's
"heavy traffic" north-star asks for: a batch of
``(artifact, timesteps, seed)`` requests is executed concurrently over
the same executor family the PR-3 sharded decode uses
(``serial`` / ``thread`` / ``process``), and every request is
**bit-identical** to loading the artifact and calling ``generate``
serially:

* Each request loads its *own* generator instance from the artifact
  file — no model object is shared across concurrent requests, so no
  generator-internal state (RNGs, train/eval flags, caches) can leak
  between them.  Determinism is a property of ``(artifact, seed,
  timesteps)`` alone; batch composition and executor are deployment
  knobs.
* Results come back in request order regardless of completion order.

For the ``process`` executor the workers ship back the generated
graph's columnar form (``src``/``dst``/``t`` + attribute block) rather
than pickled graph objects — the store columns are plain arrays, and
the parent rebuilds the store zero-copy.

**Fault tolerance** (contract in ``docs/reliability.md``): requests
run on the shared guard of :mod:`repro.reliability.guard` —
per-request failures as values, deadlines, retries, admission.  Its
``generation.request`` injection point fires on every executor,
``process`` included; a request that completes under injected faults
is bit-identical to the fault-free run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph import DynamicAttributedGraph
from repro.graph.store import TemporalEdgeStore
from repro.profiling import profiler
from repro.reliability import RequestFailure, RetryPolicy
from repro.reliability.guard import GuardedExecutor, Outcome

__all__ = ["GenerationRequest", "GenerationResult", "GenerationService"]

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class GenerationRequest:
    """One unit of serving work: which artifact, how long, which seed."""

    artifact: str
    num_timesteps: int
    seed: int = 0
    #: per-request shard count for VRDAG-backed artifacts (bit-identical
    #: for every value; non-VRDAG artifacts require 1)
    shards: int = 1

    def __post_init__(self):
        if self.num_timesteps < 1:
            raise ValueError("num_timesteps must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


@dataclass
class GenerationResult:
    """A request together with its generated graph and wall-clock.

    ``graph`` is ``None`` exactly when ``error`` is set: the request
    failed (after ``attempts`` executions) and the failure is carried
    here as data instead of poisoning the sibling requests of the
    same batch.
    """

    request: GenerationRequest
    graph: Optional[DynamicAttributedGraph]
    seconds: float
    attempts: int = 1
    error: Optional[RequestFailure] = None

    @property
    def ok(self) -> bool:
        """True when the request produced a graph."""
        return self.error is None


_Columns = Tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _execute_request(request: GenerationRequest) -> _Columns:
    """Load the artifact and generate; returns the store's columns.

    Module-level (and column-valued) so the ``process`` executor can
    ship it to workers without pickling live model or graph objects.
    """
    from repro.api.artifacts import load_artifact
    from repro.api.pipeline import generate_with_decode

    generator = load_artifact(request.artifact)
    graph = generate_with_decode(
        generator, request.num_timesteps, request.seed,
        shards=request.shards,
    )
    store = graph.store
    return (
        store.num_nodes, store.num_timesteps,
        store.src, store.dst, store.t, store.attributes,
    )


def _result(request: GenerationRequest, outcome: Outcome) -> GenerationResult:
    graph = None
    if outcome.error is None:  # rebuild the store over the columns
        store = TemporalEdgeStore(
            *outcome.value, validate=False, canonical=True
        )
        graph = DynamicAttributedGraph.from_store(store)
    return GenerationResult(
        request, graph, outcome.seconds, outcome.attempts, outcome.error
    )


class GenerationService:
    """Concurrent executor of generation-request batches.

    Parameters
    ----------
    executor:
        ``"serial"`` (in-process loop), ``"thread"`` (the decode and
        merge kernels are GIL-releasing NumPy, so threads scale), or
        ``"process"`` (full isolation; artifacts are re-read in each
        worker).
    max_workers:
        Pool width; defaults to ``cpu_count`` (the pool is created
        once and reused across batches, so it is sized for the
        machine, not for whichever batch arrives first).
    retry_policy, deadline_seconds, max_pending:
        Retries of transient failures, a per-request budget and an
        admission bound, as described on the shared
        :class:`~repro.reliability.guard.GuardedExecutor`.

    Pools are created lazily on the first batch and reused; use the
    service as a context manager (or call :meth:`close`) to release
    them.
    """

    def __init__(
        self,
        executor: str = "thread",
        max_workers: Optional[int] = None,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        deadline_seconds: Optional[float] = None,
        max_pending: Optional[int] = None,
    ):
        self._guard = GuardedExecutor(
            executor,
            point="generation.request",
            retry_policy=retry_policy,
            deadline_seconds=deadline_seconds,
            max_pending=max_pending,
            max_workers=max_workers,
            name="generation-service",
        )

    # ------------------------------------------------------------------
    def run_batch(
        self, requests: Sequence[GenerationRequest]
    ) -> List[GenerationResult]:
        """Execute every request; results are in request order.

        Per-request failures are returned as
        :class:`~repro.reliability.RequestFailure` values on the
        affected results (check ``result.ok``); the only exception
        this method raises itself is
        :class:`~repro.reliability.ServiceOverloadedError` when the
        batch would exceed ``max_pending``.
        """
        requests = list(requests)
        if not requests:
            return []
        with self._guard.admit(len(requests)) as deadlines, \
                profiler.timer("api.service.run_batch"):
            outcomes = self._guard.map(_execute_request, requests, deadlines)
            return [_result(r, o) for r, o in zip(requests, outcomes)]

    # ------------------------------------------------------------------
    def admission_stats(self):
        """Pending/admitted/shed counters of the bounded queue."""
        return self._guard.admission_stats()

    def close(self) -> None:
        """Shut down the worker pool (no-op for ``serial``)."""
        self._guard.close()

    def __enter__(self) -> "GenerationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
