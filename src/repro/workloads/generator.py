"""Workload generation and execution over the query engine.

Mirrors how graph-DB benchmarks are specified: a *mix* of query
classes with weights, Zipf-skewed node selection (real workloads
hammer hub entities), and timestep selection biased toward recent
snapshots.  A :class:`WorkloadGenerator` draws a deterministic query
sequence against a specific graph's degree profile; the sequence can
then be executed three ways, all producing identical per-query result
cardinalities:

* :func:`execute_workload` — one Python call per query (the reference
  dispatch path), returning the per-class latency / cardinality
  profile a vendor compares between the customer's private graph and
  its synthetic twin;
* :func:`~repro.workloads.batch.run_queries_batched` — the same mix
  answered through the batched vectorized kernels;
* :class:`~repro.workloads.service.QueryService` — the mix split into
  request batches and served over a concurrent executor pool.

See ``docs/workloads.md`` for the query model and the guarantees
connecting the three paths.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.engine import GraphQueryEngine


class QueryKind(enum.Enum):
    """The benchmark query classes.

    ``EDGE_WINDOW`` (how many snapshots of ``[t0, t1]`` contain an
    edge) is the temporal-range class served by the batched
    ``searchsorted`` kernel; it is not part of the default OLTP mix
    but is included in serving-oriented mixes such as
    :func:`serving_mix`.

    Every kind has a batched vectorized kernel; the traversal kinds
    ``TWO_HOP`` and ``TEMPORAL_REACH`` ride the frontier-vectorized
    multi-source BFS kernels, and the analytics kinds
    ``TRIANGLE_COUNT`` and ``DEGREE_TOPK`` read one cached
    per-timestep plan per distinct timestep in the batch.  A kind's
    batched form is one row of the column table
    :data:`repro.workloads.batch.ARG_SLOTS` plus one branch of its
    kernel dispatch; adding a kind means adding both (and a branch of
    the per-query reference :func:`_run_query`).
    """

    OUT_NEIGHBORS = "out_neighbors"
    IN_NEIGHBORS = "in_neighbors"
    HAS_EDGE = "has_edge"
    TWO_HOP = "two_hop"
    TRIANGLE_COUNT = "triangle_count"
    ATTRIBUTE_RANGE = "attribute_range"
    DEGREE_TOPK = "degree_topk"
    TEMPORAL_REACH = "temporal_reach"
    EDGE_WINDOW = "edge_window"


@dataclass(frozen=True)
class Query:
    """One generated query instance.

    ``t`` is the primary snapshot the query touches (for window
    queries, the window start); ``args`` are the kind-specific
    positional arguments consumed by the executors.
    """

    kind: QueryKind
    t: int
    args: Tuple


def serving_mix() -> Dict[QueryKind, float]:
    """A point-lookup-heavy mix shaped like high-QPS serving traffic.

    Point lookups only — the mix the throughput benches and the
    ``verify-queries`` CLI default to.  The default
    :class:`WorkloadConfig` mix instead mirrors an analytics-leaning
    OLTP profile with traversals and pattern counts.  Every class in
    either mix has a batched kernel; the analytics kinds
    (``TRIANGLE_COUNT``, ``DEGREE_TOPK``) read per-timestep plans, so
    they cost one build per distinct timestep, not one per query.
    """
    return {
        QueryKind.OUT_NEIGHBORS: 0.30,
        QueryKind.IN_NEIGHBORS: 0.20,
        QueryKind.HAS_EDGE: 0.30,
        QueryKind.EDGE_WINDOW: 0.10,
        QueryKind.ATTRIBUTE_RANGE: 0.10,
    }


@dataclass
class WorkloadConfig:
    """Workload shape.

    ``mix`` maps query kinds to relative weights (normalized
    internally).  ``zipf_s`` controls node-selection skew (1.0 ≈ web
    workloads; 0 = uniform).  ``recent_bias`` in [0, 1) biases timestep
    choice toward the latest snapshots (0 = uniform over time).
    ``topk`` is the ``k`` of DEGREE_TOPK queries and
    ``range_width_quantile`` the width (as a quantile span) of
    ATTRIBUTE_RANGE scans.  ``seed`` makes the drawn sequence
    deterministic.
    """

    num_queries: int = 1000
    mix: Dict[QueryKind, float] = field(
        default_factory=lambda: {
            QueryKind.OUT_NEIGHBORS: 0.30,
            QueryKind.IN_NEIGHBORS: 0.15,
            QueryKind.HAS_EDGE: 0.20,
            QueryKind.TWO_HOP: 0.15,
            QueryKind.ATTRIBUTE_RANGE: 0.10,
            QueryKind.DEGREE_TOPK: 0.05,
            QueryKind.TRIANGLE_COUNT: 0.02,
            QueryKind.TEMPORAL_REACH: 0.03,
        }
    )
    zipf_s: float = 1.0
    recent_bias: float = 0.5
    topk: int = 10
    range_width_quantile: float = 0.25
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        if not self.mix:
            raise ValueError("mix must not be empty")
        if any(w < 0 for w in self.mix.values()) or sum(self.mix.values()) <= 0:
            raise ValueError("mix weights must be non-negative with positive sum")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        if not 0.0 <= self.recent_bias < 1.0:
            raise ValueError("recent_bias must be in [0, 1)")
        if not 0.0 < self.range_width_quantile <= 1.0:
            raise ValueError("range_width_quantile must be in (0, 1]")


class WorkloadGenerator:
    """Draws query instances against a specific graph profile.

    Node popularity ranks follow the graph's time-pooled total degree,
    so the Zipf head lands on actual hubs (as it does in production).
    The drawn sequence is a pure function of ``(graph, config)`` —
    :meth:`generate` is deterministic per seed, which is what lets the
    serving layer promise bit-identical replay regardless of batch
    split or executor.
    """

    def __init__(self, graph, config: Optional[WorkloadConfig] = None):
        self.graph = graph
        self.config = config or WorkloadConfig()
        self.config.validate()
        deg = np.zeros(graph.num_nodes)
        for snap in graph:
            deg += snap.degrees()
        self._popularity_rank = np.argsort(-deg, kind="stable")

    # ------------------------------------------------------------------
    def _node_probs(self) -> np.ndarray:
        n = self.graph.num_nodes
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** -self.config.zipf_s
        probs = np.zeros(n)
        probs[self._popularity_rank] = weights / weights.sum()
        return probs

    def _time_probs(self) -> np.ndarray:
        t_len = self.graph.num_timesteps
        bias = self.config.recent_bias
        weights = (1.0 - bias) ** np.arange(t_len - 1, -1, -1, dtype=float)
        return weights / weights.sum()

    def generate(self) -> List[Query]:
        """Draw ``num_queries`` query instances (deterministic per seed)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        kinds = list(cfg.mix)
        kind_p = np.array([cfg.mix[k] for k in kinds], dtype=float)
        kind_p /= kind_p.sum()
        node_p = self._node_probs()
        time_p = self._time_probs()
        n = self.graph.num_nodes
        t_len = self.graph.num_timesteps
        f = self.graph.num_attributes
        queries: List[Query] = []
        for _ in range(cfg.num_queries):
            kind = kinds[int(rng.choice(len(kinds), p=kind_p))]
            t = int(rng.choice(t_len, p=time_p))
            if kind in (QueryKind.OUT_NEIGHBORS, QueryKind.IN_NEIGHBORS):
                args = (int(rng.choice(n, p=node_p)),)
            elif kind == QueryKind.HAS_EDGE:
                args = (
                    int(rng.choice(n, p=node_p)),
                    int(rng.choice(n, p=node_p)),
                )
            elif kind == QueryKind.TWO_HOP:
                args = (int(rng.choice(n, p=node_p)), 2)
            elif kind == QueryKind.TRIANGLE_COUNT:
                args = ()
            elif kind == QueryKind.ATTRIBUTE_RANGE:
                if f == 0:
                    continue  # attribute-free graph: skip this class
                dim = int(rng.integers(0, f))
                values = self.graph[t].attributes[:, dim]
                lo = float(np.quantile(values, rng.uniform(0, 1 - cfg.range_width_quantile)))
                hi = lo + cfg.range_width_quantile * float(
                    values.max() - values.min() + 1e-9
                )
                args = (dim, lo, hi)
            elif kind == QueryKind.DEGREE_TOPK:
                args = (cfg.topk,)
            elif kind in (QueryKind.TEMPORAL_REACH, QueryKind.EDGE_WINDOW):
                t0 = int(rng.choice(t_len, p=time_p))
                t1 = int(rng.integers(t0, t_len))
                args = (
                    int(rng.choice(n, p=node_p)),
                    int(rng.choice(n, p=node_p)),
                    t0,
                    t1,
                )
                t = t0
            else:  # pragma: no cover - enum is closed
                raise AssertionError(kind)
            queries.append(Query(kind=kind, t=t, args=args))
        return queries


@dataclass
class WorkloadReport:
    """Per-class execution profile of one workload run.

    Fields
    ------
    ``total_queries``:
        Queries executed (the workload size after any skipped classes).
    ``total_seconds``:
        Wall-clock of the whole run; for concurrent service runs this
        is the *batch* wall-clock, so :meth:`throughput` reflects the
        pool, not the per-query sum.
    ``latency_by_kind``:
        Mean seconds per query, per query class.  Batched executors
        amortize each kernel call over its group, so this stays
        comparable with the per-query dispatch profile.
    ``count_by_kind``:
        Queries executed per class.
    ``mean_result_size``:
        Mean result cardinality per class — identical across the
        per-query, batched and service execution paths (latency
        columns are the only thing dispatch may change).
    """

    total_queries: int
    total_seconds: float
    latency_by_kind: Dict[str, float]
    count_by_kind: Dict[str, int]
    mean_result_size: Dict[str, float]

    @staticmethod
    def aggregate(parts, total_seconds: float) -> "WorkloadReport":
        """The report of a run from its completed parts.

        Each part is ``(kinds, cardinalities, seconds_by_kind)``: the
        kind value of each query it executed, each query's result
        cardinality, and the part's seconds per kind.  Every execution
        path (per-query, batched, each service) reports through here.
        """
        latency: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        sizes: Dict[str, float] = {}
        for kinds, cards, seconds_by_kind in parts:
            for key, seconds in seconds_by_kind.items():
                latency[key] = latency.get(key, 0.0) + seconds
            for key, card in zip(kinds, np.asarray(cards).tolist()):
                counts[key] = counts.get(key, 0) + 1
                sizes[key] = sizes.get(key, 0.0) + card
        return WorkloadReport(
            total_queries=sum(counts.values()),
            total_seconds=total_seconds,
            latency_by_kind={k: latency[k] / counts[k] for k in counts},
            count_by_kind=counts,
            mean_result_size={k: sizes[k] / counts[k] for k in counts},
        )

    def throughput(self) -> float:
        """Queries per second over the whole run."""
        if self.total_seconds == 0:
            return float("inf")
        return self.total_queries / self.total_seconds


def _run_query(engine: GraphQueryEngine, q: Query) -> int:
    """Execute one query via the per-query path; returns the cardinality."""
    if q.kind == QueryKind.OUT_NEIGHBORS:
        return len(engine.out_neighbors(q.args[0], q.t))
    if q.kind == QueryKind.IN_NEIGHBORS:
        return len(engine.in_neighbors(q.args[0], q.t))
    if q.kind == QueryKind.HAS_EDGE:
        return int(engine.has_edge(q.args[0], q.args[1], q.t))
    if q.kind == QueryKind.TWO_HOP:
        return len(engine.k_hop(q.args[0], q.t, q.args[1]))
    if q.kind == QueryKind.TRIANGLE_COUNT:
        return engine.triangle_count(q.t)
    if q.kind == QueryKind.ATTRIBUTE_RANGE:
        return len(engine.attribute_range(q.t, *q.args))
    if q.kind == QueryKind.DEGREE_TOPK:
        return len(engine.degree_topk(q.t, q.args[0]))
    if q.kind == QueryKind.TEMPORAL_REACH:
        u, v, t0, t1 = q.args
        return int(engine.temporal_reachable(u, v, t0, t1))
    if q.kind == QueryKind.EDGE_WINDOW:
        u, v, t0, t1 = q.args
        return engine.edge_window_count(u, v, t0, t1)
    raise AssertionError(q.kind)  # pragma: no cover - enum is closed


def execute_workload(
    engine: GraphQueryEngine, queries: Sequence[Query]
) -> WorkloadReport:
    """Run every query through per-query dispatch, timing per class.

    The reference execution path (and the baseline the serving benches
    compare against).  Raises ``ValueError`` on an empty workload — an
    empty benchmark is a configuration error, not a 0-second success.
    """
    if not queries:
        raise ValueError("empty workload")
    start = time.perf_counter()
    sizes, latency = run_queries_per_query(engine, queries)
    total = time.perf_counter() - start
    return WorkloadReport.aggregate(
        [([q.kind.value for q in queries], sizes, latency)], total
    )


def run_queries_per_query(
    engine: GraphQueryEngine, queries: Sequence[Query]
) -> Tuple[List[int], Dict[str, float]]:
    """Per-query dispatch: each cardinality, and the seconds per kind."""
    sizes: List[int] = []
    latency: Dict[str, float] = {}
    for q in queries:
        q0 = time.perf_counter()
        sizes.append(_run_query(engine, q))
        key = q.kind.value
        latency[key] = latency.get(key, 0.0) + (time.perf_counter() - q0)
    return sizes, latency


def replay_workload(
    run_batch: Callable,
    graph,
    config: WorkloadConfig,
    batch_size: int,
    make_request: Callable,
) -> Tuple[WorkloadReport, List]:
    """Every service's ``run_workload``: ``config``'s mix on ``graph``,
    served through ``run_batch`` as ``make_request(queries)`` batches."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    queries = WorkloadGenerator(graph, config).generate()
    if not queries:
        raise ValueError("workload generated no queries")
    requests = [
        make_request(queries[i:i + batch_size])
        for i in range(0, len(queries), batch_size)
    ]
    kinds = [q.kind.value for q in queries]
    start = time.perf_counter()
    results = run_batch(requests)
    report = WorkloadReport.aggregate(
        (
            (kinds[i * batch_size:(i + 1) * batch_size], r.cardinalities,
             r.seconds_by_kind)
            for i, r in enumerate(results) if r.ok
        ),
        time.perf_counter() - start,
    )
    return report, results
