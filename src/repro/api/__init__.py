"""``repro.api`` — the canonical public surface of the toolkit.

Four pieces, one lifecycle (``fit → save → generate → evaluate``), any
generator:

* **Registry** — :func:`get_generator` / :func:`list_generators` /
  :func:`register_generator`: VRDAG and every baseline constructible
  by name, with construction as data (``from_config`` / ``to_config``).
* **Artifacts** — :func:`save_artifact` / :func:`load_artifact`: a
  versioned envelope round-tripping any registered generator, fitted
  or not (:mod:`repro.api.artifacts` documents the schema).
* **Pipeline** — :class:`Pipeline` runs dataset × generator × metric
  suites in one call and returns a structured :class:`RunResult`,
  threading the sharded-decode knobs through for VRDAG.
* **Service** — :class:`GenerationService` executes batches of
  :class:`GenerationRequest` concurrently with per-request bit-exact
  determinism.

Query serving rides the same surface: :class:`QueryService` /
:class:`QueryRequest` / :class:`QueryResult` (from
:mod:`repro.workloads`, re-exported here) serve workload query mixes
over a shared engine and bounded plan cache, and
:class:`ProcessQueryService` (from :mod:`repro.serving`, with
:class:`ColumnarQueryRequest` as its native request format) scales
the same contract across N worker processes mapping the store from
shared memory — see ``docs/workloads.md``.  For stores still
ingesting, :class:`LiveQueryService` (with
:class:`~repro.graph.live.LiveStoreBuilder`, both re-exported here)
answers each request batch against one pinned epoch snapshot,
bit-identical to a bulk-built store of that epoch's events.

Every service runs on one guarded-request core
(:mod:`repro.reliability.guard`) and speaks the vocabulary of
:mod:`repro.reliability` (re-exported here): per-request failures are
:class:`RequestFailure` values on results, overload raises
:class:`ServiceOverloadedError`, deadlines surface as
:class:`DeadlineExceededError`, and :class:`RetryPolicy` /
:data:`fault_injector` configure retries and chaos testing — see
``docs/reliability.md``.

Quickstart::

    from repro import api

    result = api.Pipeline(dataset="email", generator="VRDAG",
                          metrics=["structure", "privacy"],
                          artifact_out="/tmp/vrdag.npz").run()

    batch = api.GenerationService(executor="thread").run_batch([
        api.GenerationRequest("/tmp/vrdag.npz", num_timesteps=14, seed=s)
        for s in range(8)
    ])
"""

from repro.api.artifacts import (
    ARTIFACT_VERSION,
    ArtifactError,
    ArtifactStateError,
    is_artifact,
    load_artifact,
    save_artifact,
)
from repro.api.pipeline import METRIC_SUITES, Pipeline, RunResult, list_metrics
from repro.api.registry import (
    GeneratorEntry,
    generator_entry,
    generator_name_of,
    get_generator,
    list_generators,
    register_generator,
    smoke_config,
)
from repro.api.service import (
    GenerationRequest,
    GenerationResult,
    GenerationService,
)
from repro.reliability import (
    DeadlineExceededError,
    FaultPlan,
    InjectedFault,
    RequestFailure,
    RetryPolicy,
    ServiceOverloadedError,
    fault_injector,
)
from repro.graph.live import LiveStoreBuilder
from repro.serving import ColumnarQueryRequest, ProcessQueryService
from repro.workloads import (
    LiveQueryService,
    QueryRequest,
    QueryResult,
    QueryService,
)

__all__ = [
    # registry
    "GeneratorEntry",
    "register_generator",
    "get_generator",
    "generator_entry",
    "generator_name_of",
    "list_generators",
    "smoke_config",
    # artifacts
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactStateError",
    "save_artifact",
    "load_artifact",
    "is_artifact",
    # pipeline
    "Pipeline",
    "RunResult",
    "METRIC_SUITES",
    "list_metrics",
    # service
    "GenerationRequest",
    "GenerationResult",
    "GenerationService",
    # query serving (repro.workloads / repro.serving)
    "QueryRequest",
    "QueryResult",
    "QueryService",
    "ColumnarQueryRequest",
    "ProcessQueryService",
    "LiveQueryService",
    "LiveStoreBuilder",
    # reliability (repro.reliability)
    "DeadlineExceededError",
    "FaultPlan",
    "InjectedFault",
    "RequestFailure",
    "RetryPolicy",
    "ServiceOverloadedError",
    "fault_injector",
]
