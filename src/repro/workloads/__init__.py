"""Graph query workloads over dynamic attributed graphs (§I motivation 1).

The paper motivates graph generation first and foremost as *benchmark
data for graph processing systems*: a DBMS vendor needs representative
data **and workloads**.  This package supplies the workload half, as a
small serving stack (documented in ``docs/workloads.md``):

* :class:`GraphQueryEngine` — an in-memory query engine over a
  :class:`~repro.graph.dynamic.DynamicAttributedGraph`: per-query
  methods (neighbour lookups, k-hop expansion, triangle counting,
  attribute range scans, time-respecting reachability, top-degree
  queries) plus batched vectorized kernels (``batch_degrees``,
  ``batch_neighbors``, ``batch_has_edge``,
  ``batch_edge_window_counts``, ``batch_two_hop``,
  ``batch_triangle_counts``, ...) answering whole query columns in
  bulk, bit-identically.
* :class:`SnapshotPlanCache` — the bounded LRU the engine's
  per-timestep CSR/CSC/attribute/analytics/edge-key plans live in
  (``memory_budget_bytes`` sizing).
* :class:`WorkloadConfig` / :class:`WorkloadGenerator` — Zipf-skewed
  query mixes mirroring OLTP-style graph workloads
  (:func:`serving_mix` for the point-lookup-heavy serving profile).
* :func:`execute_workload` — run a workload per query and collect the
  per-class latency/cardinality profile used to compare engines on
  original vs synthetic data; :func:`run_queries_batched` answers the
  same mix in bulk with identical cardinalities.
* :class:`QueryService` — concurrent request-batch serving over one
  shared engine and plan cache (also exported via :mod:`repro.api`).
* :class:`LiveQueryService` — the same serving contract over a
  :class:`~repro.graph.live.LiveStoreBuilder` that is still
  ingesting: each request batch pins one sealed epoch, and results
  are bit-identical to a bulk-built store of that epoch's events.
"""

from repro.workloads.batch import run_queries_batched, run_queries_resilient
from repro.workloads.cache import PlanCacheStats, SnapshotPlanCache
from repro.workloads.engine import GraphQueryEngine
from repro.workloads.generator import (
    Query,
    QueryKind,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadReport,
    execute_workload,
    serving_mix,
)
from repro.workloads.live import (
    EpochPlanView,
    LiveQueryService,
    LiveServiceStats,
)
from repro.workloads.service import (
    SERVICE_EXECUTORS,
    QueryRequest,
    QueryResult,
    QueryService,
)

__all__ = [
    "EpochPlanView",
    "GraphQueryEngine",
    "LiveQueryService",
    "LiveServiceStats",
    "PlanCacheStats",
    "Query",
    "QueryKind",
    "QueryRequest",
    "QueryResult",
    "QueryService",
    "SERVICE_EXECUTORS",
    "SnapshotPlanCache",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadReport",
    "execute_workload",
    "run_queries_batched",
    "run_queries_resilient",
    "serving_mix",
]
