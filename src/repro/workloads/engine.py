"""In-memory graph query engine over the columnar temporal edge-store.

The serving half of the paper's motivating scenario (§I: benchmark
data *and workloads* for graph processing systems).  One engine wraps
one :class:`~repro.graph.dynamic.DynamicAttributedGraph` and answers
the access patterns graph databases are benchmarked on — point
lookups, traversals, pattern counting, analytics, temporal
reachability — in two dispatch styles:

* **Per-query methods** (:meth:`GraphQueryEngine.out_neighbors`,
  :meth:`~GraphQueryEngine.has_edge`, ...): one Python call per query.
  These are the reference semantics and the ``_reference_batch_*``
  twins the batched kernels are pinned against.
* **Batched kernels** (:meth:`~GraphQueryEngine.batch_degrees`,
  :meth:`~GraphQueryEngine.batch_neighbors`,
  :meth:`~GraphQueryEngine.batch_has_edge`,
  :meth:`~GraphQueryEngine.batch_edge_window_counts`,
  :meth:`~GraphQueryEngine.batch_two_hop`,
  :meth:`~GraphQueryEngine.batch_temporal_reach`,
  :meth:`~GraphQueryEngine.batch_triangle_counts`,
  :meth:`~GraphQueryEngine.batch_degree_topk`): whole query
  *columns* — parallel arrays of nodes/timesteps — answered in bulk
  with ``searchsorted``/CSR slicing on the store, bit-identical to the
  per-query loop at a fraction of the dispatch cost.  The traversal
  kernels run frontier-vectorized multi-source BFS: one packed
  ``query_id * N + node`` key array carries every query's frontier
  per level (deduplicated against a flat visited bitmap over the same
  key space), so a whole batch of reachability queries advances in a
  handful of ``np.repeat``/bitmap kernel passes.  This is the
  high-throughput serving path
  (:class:`~repro.workloads.service.QueryService` rides it).

Every index the engine consults is a *plan* in a
:class:`~repro.workloads.cache.SnapshotPlanCache`: forward CSR as a
zero-copy view of the store's ``(t, src, dst)``-sorted columns,
reverse CSC as one O(M_t log M_t) re-sort, sorted attribute orders
for range scans, the global sorted edge-key columns behind the
edge-existence and temporal-range kernels, the per-snapshot
analytics memos (triangle count, degree-ranked node order) that the
scalar and batched analytics both read, and each snapshot's SCC
condensation, over which temporal reachability saturates a step.  The
cache is bounded (``cache_memory_budget_bytes``) and shared across
concurrent requests; no dense ``(N, N)`` matrix is ever touched
(``track_dense_materializations`` stays 0 on this path).  The prose
contract lives in ``docs/workloads.md``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graph import properties as props
from repro.graph.dynamic import DynamicAttributedGraph
from repro.graph.sparse import dedup_keys
from repro.workloads.cache import SnapshotPlanCache


def _as_query_column(values, name: str) -> np.ndarray:
    """Coerce one query column to a 1-D int64 array (scalars broadcast)."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _expand_frontier(
    keys: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
) -> np.ndarray:
    """One BFS level for a whole batch: expand packed frontier keys.

    ``keys`` are packed ``query_id * n + node`` int64 keys (the
    per-query node namespaces stay disjoint, so one flat array carries
    every query's frontier at once).  Each key's node is expanded
    through the CSR plan with ``np.repeat`` over its indptr slice;
    the result is the packed key array of all (query, neighbour)
    pairs, duplicates included — callers deduplicate against a flat
    visited bitmap indexed by the same packed keys.
    """
    nodes = keys % n
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    total = int(lens.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    # per-element offset within its own source row, 0..len-1
    intra = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    return np.repeat(keys - nodes, lens) + indices[
        np.repeat(starts, lens) + intra
    ]


class GraphQueryEngine:
    """Query engine over a :class:`DynamicAttributedGraph`.

    Parameters
    ----------
    graph:
        The graph to serve.  The engine never mutates it; all indexes
        derive from its canonical columnar store.
    plan_cache:
        An existing :class:`SnapshotPlanCache` to share (e.g. one
        cache across several engines over the same store), or any
        object speaking the same plan protocol (``store`` attribute
        plus ``csr`` / ``csc`` / ``attribute_order`` / ``triangles`` /
        ``degree_order`` / ``reach`` / ``temporal_keys`` / ``pair_keys``
        / ``stats`` — the live tier's
        :class:`~repro.workloads.live.EpochPlanView` pins one epoch
        this way).  Must wrap ``graph.store``.
    cache_memory_budget_bytes:
        Byte budget of the engine's own plan cache when ``plan_cache``
        is not given; ``None`` means unbounded.  See
        :class:`SnapshotPlanCache` for the memory model.
    """

    def __init__(
        self,
        graph: DynamicAttributedGraph,
        *,
        plan_cache: Optional[SnapshotPlanCache] = None,
        cache_memory_budget_bytes: Optional[int] = None,
    ):
        self.graph = graph
        if plan_cache is not None and plan_cache.store is not graph.store:
            raise ValueError("plan_cache wraps a different store")
        self._plan_cache = plan_cache
        self._cache_budget = cache_memory_budget_bytes
        self._plan_cache_init = threading.Lock()

    @property
    def plans(self) -> SnapshotPlanCache:
        """The engine's plan cache (created lazily, then shared).

        Creation is locked: concurrent first queries (a fresh engine
        inside a thread-pooled ``QueryService``) must agree on one
        cache, or the budget and the hit/miss counters would split
        across per-thread instances.
        """
        if self._plan_cache is None:
            with self._plan_cache_init:
                if self._plan_cache is None:
                    self._plan_cache = SnapshotPlanCache(
                        self.graph.store,
                        memory_budget_bytes=self._cache_budget,
                    )
        return self._plan_cache

    @classmethod
    def from_event_stream(
        cls,
        events,
        num_nodes: int,
        num_timesteps: int,
        *,
        chunk_events: int = 65536,
        memory_budget_bytes: int | None = None,
        attributes: np.ndarray | None = None,
        cache_memory_budget_bytes: int | None = None,
    ) -> "GraphQueryEngine":
        """Build an engine straight from a ``(src, dst, t)`` event stream.

        The generated-then-scored pipeline entry point: events fold
        into the canonical columnar store through
        :func:`repro.graph.streams.ingest_stream` — bounded-memory
        chunked canonicalization, so the unsorted stream is never
        resident (the fold's peak is one chunk plus up to 2x the
        store's columns) — and the engine's plans derive
        lazily from that store.  ``events`` accepts the same forms as
        :func:`ingest_stream` (an array triple, an iterable of scalar
        triples, or an iterable of array batches).
        ``cache_memory_budget_bytes`` bounds the engine's plan cache
        (distinct from the ingestion budget).
        """
        from repro.graph.streams import ingest_stream

        store = ingest_stream(
            events,
            num_nodes,
            num_timesteps,
            chunk_events=chunk_events,
            memory_budget_bytes=memory_budget_bytes,
            attributes=attributes,
        )
        return cls(
            DynamicAttributedGraph.from_store(store),
            cache_memory_budget_bytes=cache_memory_budget_bytes,
        )

    # ------------------------------------------------------------------
    def _check_t(self, t: int) -> None:
        if not 0 <= t < self.graph.num_timesteps:
            raise IndexError(
                f"timestep {t} out of range 0..{self.graph.num_timesteps - 1}"
            )

    def _check_v(self, v: int) -> None:
        if not 0 <= v < self.graph.num_nodes:
            raise IndexError(
                f"node {v} out of range 0..{self.graph.num_nodes - 1}"
            )

    def _check_columns(self, nodes: Dict[str, np.ndarray],
                       ts: Dict[str, np.ndarray]) -> None:
        """Vectorized range validation of whole query columns."""
        for name, col in nodes.items():
            if col.size and (
                col.min() < 0 or col.max() >= self.graph.num_nodes
            ):
                raise IndexError(
                    f"{name} contains node ids out of range "
                    f"0..{self.graph.num_nodes - 1}"
                )
        for name, col in ts.items():
            if col.size and (
                col.min() < 0 or col.max() >= self.graph.num_timesteps
            ):
                raise IndexError(
                    f"{name} contains timesteps out of range "
                    f"0..{self.graph.num_timesteps - 1}"
                )

    def _row(self, v: int, t: int, direction: str) -> np.ndarray:
        """The (sorted) neighbour row of ``v`` at ``t`` (zero-copy)."""
        indptr, indices = (
            self.plans.csr(t) if direction == "out" else self.plans.csc(t)
        )
        return indices[indptr[v]:indptr[v + 1]]

    # ------------------------------------------------------------------
    # point lookups and traversals (per-query reference path)
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int, t: int) -> List[int]:
        """Out-neighbour ids of ``v`` in snapshot ``t`` (sorted)."""
        self._check_v(v)
        self._check_t(t)
        return self._row(v, t, "out").tolist()

    def in_neighbors(self, v: int, t: int) -> List[int]:
        """In-neighbour ids of ``v`` in snapshot ``t`` (sorted)."""
        self._check_v(v)
        self._check_t(t)
        return self._row(v, t, "in").tolist()

    def has_edge(self, u: int, v: int, t: int) -> bool:
        """Whether the directed edge ``u -> v`` exists in snapshot ``t``."""
        self._check_v(u)
        self._check_v(v)
        self._check_t(t)
        row = self._row(u, t, "out")
        pos = np.searchsorted(row, v)
        return bool(pos < len(row) and row[pos] == v)

    def k_hop(self, v: int, t: int, k: int, directed: bool = True) -> Set[int]:
        """Nodes reachable from ``v`` within ``k`` hops in snapshot ``t``.

        ``v`` itself is excluded.  ``directed=False`` traverses the
        symmetrized graph.
        """
        self._check_v(v)
        self._check_t(t)
        if k < 0:
            raise ValueError("k must be >= 0")
        fwd_indptr, fwd_indices = self.plans.csr(t)
        rev = None if directed else self.plans.csc(t)
        frontier = {v}
        seen = {v}
        for _ in range(k):
            nxt: Set[int] = set()
            for u in frontier:
                nxt.update(fwd_indices[fwd_indptr[u]:fwd_indptr[u + 1]].tolist())
                if rev is not None:
                    rev_indptr, rev_indices = rev
                    nxt.update(
                        rev_indices[rev_indptr[u]:rev_indptr[u + 1]].tolist()
                    )
            frontier = nxt - seen
            if not frontier:
                break
            seen |= frontier
        seen.discard(v)
        return seen

    def two_hop_neighbors(self, v: int, t: int) -> Set[int]:
        """Nodes within two directed hops of ``v`` at ``t`` (``v`` excluded).

        The TWO_HOP workload class; equivalent to ``k_hop(v, t, 2)``
        and the per-query twin of :meth:`batch_two_hop`.
        """
        return self.k_hop(v, t, 2)

    # ------------------------------------------------------------------
    # pattern / analytic queries
    # ------------------------------------------------------------------
    def triangle_count(self, t: int) -> int:
        """Undirected triangle count of snapshot ``t`` (per-step plan)."""
        self._check_t(t)
        return self.plans.triangles(t)

    def degree_topk(self, t: int, k: int, direction: str = "out") -> List[int]:
        """The ``k`` highest-degree node ids (ties by id, ascending).

        Degrees are the store's loop-free edge counts, the same ones
        :meth:`out_neighbors` / :meth:`in_neighbors` slice.
        """
        self._check_t(t)
        if k < 0:
            raise ValueError("k must be >= 0")
        if direction not in ("out", "in", "total"):
            raise ValueError(f"unknown direction {direction!r}")
        return self.plans.degree_order(t, direction)[:k].tolist()

    def attribute_range(
        self, t: int, dim: int, lo: float, hi: float
    ) -> List[int]:
        """Node ids with attribute ``dim`` in ``[lo, hi]`` at ``t`` (sorted index scan)."""
        self._check_t(t)
        if not 0 <= dim < self.graph.num_attributes:
            raise IndexError(
                f"attribute {dim} out of range 0..{self.graph.num_attributes - 1}"
            )
        values = self.graph[t].attributes[:, dim]
        order = self.plans.attribute_order(t, dim)
        sorted_vals = values[order]
        left = np.searchsorted(sorted_vals, lo, side="left")
        right = np.searchsorted(sorted_vals, hi, side="right")
        return sorted(order[left:right].tolist())

    # ------------------------------------------------------------------
    # temporal queries
    # ------------------------------------------------------------------
    def temporal_reachable(
        self, u: int, v: int, t0: int, t1: int
    ) -> bool:
        """Time-respecting reachability: can ``u`` reach ``v`` using edges
        of snapshots ``t0..t1`` in non-decreasing snapshot order?

        At each snapshot the frontier may expand through any number of
        that snapshot's edges (edges within one window are concurrent).
        """
        self._check_v(u)
        self._check_v(v)
        self._check_t(t0)
        self._check_t(t1)
        if t1 < t0:
            raise ValueError(f"empty time window [{t0}, {t1}]")
        if u == v:
            return True
        reached = {u}
        for t in range(t0, t1 + 1):
            indptr, indices = self.plans.csr(t)
            frontier = set(reached)
            while frontier:
                nxt: Set[int] = set()
                for w in frontier:
                    for x in indices[indptr[w]:indptr[w + 1]].tolist():
                        if x not in reached:
                            nxt.add(x)
                if v in nxt:
                    return True
                reached |= nxt
                frontier = nxt
        return v in reached

    def edge_window_count(self, u: int, v: int, t0: int, t1: int) -> int:
        """Number of snapshots in ``[t0, t1]`` containing ``u -> v``.

        The per-query temporal-range path (one :meth:`has_edge` per
        snapshot); :meth:`batch_edge_window_counts` answers whole
        columns of these with two binary searches per query.
        """
        self._check_v(u)
        self._check_v(v)
        self._check_t(t0)
        self._check_t(t1)
        if t1 < t0:
            raise ValueError(f"empty time window [{t0}, {t1}]")
        return sum(1 for t in range(t0, t1 + 1) if self.has_edge(u, v, t))

    def edge_persistence(self, u: int, v: int) -> float:
        """Fraction of snapshots containing the edge ``u -> v``."""
        t_len = self.graph.num_timesteps
        return self.edge_window_count(u, v, 0, t_len - 1) / t_len

    # ------------------------------------------------------------------
    # batched vectorized kernels (the serving path)
    # ------------------------------------------------------------------
    # Contract, shared by every batch_* kernel: queries arrive as
    # parallel column arrays, results come back as arrays in query order,
    # bit-identical to the per-query loop (the _reference_batch_*
    # twins below, pinned by tests/workloads/test_batch.py).  Columns
    # are validated vectorized up front; an empty batch returns empty
    # results.  Work is grouped by timestep internally, so a batch
    # touching k distinct timesteps costs k plan lookups, not |batch|.

    def batch_degrees(
        self, nodes, ts, direction: str = "out"
    ) -> np.ndarray:
        """Degrees of ``nodes[i]`` at ``ts[i]``, one int64 per query.

        ``direction`` is ``"out"``, ``"in"`` or ``"total"`` (out + in;
        a node on both sides of the same edge counts twice, matching
        ``GraphSnapshot.degrees``).
        """
        if direction not in ("out", "in", "total"):
            raise ValueError(f"unknown direction {direction!r}")
        nodes = _as_query_column(nodes, "nodes")
        ts = _as_query_column(ts, "ts")
        if nodes.size != ts.size:
            raise ValueError(
                f"column lengths differ: {nodes.size}/{ts.size}"
            )
        self._check_columns({"nodes": nodes}, {"ts": ts})
        out = np.zeros(nodes.size, dtype=np.int64)
        for t, sel in self._timestep_groups(ts):
            group = nodes[sel]
            if direction in ("out", "total"):
                indptr, _ = self.plans.csr(t)
                out[sel] += indptr[group + 1] - indptr[group]
            if direction in ("in", "total"):
                indptr, _ = self.plans.csc(t)
                out[sel] += indptr[group + 1] - indptr[group]
        return out

    def batch_neighbors(
        self, nodes, ts, direction: str = "out"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbour lists of ``nodes[i]`` at ``ts[i]``, CSR-packed.

        Returns ``(offsets, neighbors)``: query ``i``'s sorted
        neighbour ids are ``neighbors[offsets[i]:offsets[i + 1]]`` —
        the same packing the store uses, so a whole batch's results
        are two flat arrays instead of |batch| Python lists.
        """
        if direction not in ("out", "in"):
            raise ValueError(f"unknown direction {direction!r}")
        nodes = _as_query_column(nodes, "nodes")
        ts = _as_query_column(ts, "ts")
        if nodes.size != ts.size:
            raise ValueError(
                f"column lengths differ: {nodes.size}/{ts.size}"
            )
        self._check_columns({"nodes": nodes}, {"ts": ts})
        plan = self.plans.csr if direction == "out" else self.plans.csc
        counts = np.zeros(nodes.size, dtype=np.int64)
        groups = list(self._timestep_groups(ts))
        for t, sel in groups:
            indptr, _ = plan(t)
            counts[sel] = indptr[nodes[sel] + 1] - indptr[nodes[sel]]
        offsets = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        neighbors = np.empty(offsets[-1], dtype=np.int64)
        for t, sel in groups:
            indptr, indices = plan(t)
            group = nodes[sel]
            starts = indptr[group]
            lens = indptr[group + 1] - starts
            total = int(lens.sum())
            if not total:
                continue
            # per-element offset within its own query, 0..len-1
            ends = np.cumsum(lens)
            intra = np.arange(total, dtype=np.int64) - np.repeat(
                ends - lens, lens
            )
            neighbors[np.repeat(offsets[sel], lens) + intra] = indices[
                np.repeat(starts, lens) + intra
            ]
        return offsets, neighbors

    def batch_has_edge(self, src, dst, ts) -> np.ndarray:
        """Existence of ``src[i] -> dst[i]`` at ``ts[i]``, one bool per query.

        One ``np.searchsorted`` against the store's sorted composite
        ``(t, src, dst)`` keys answers the whole batch — no per-query
        row slicing at all.
        """
        src = _as_query_column(src, "src")
        dst = _as_query_column(dst, "dst")
        ts = _as_query_column(ts, "ts")
        if not (src.size == dst.size == ts.size):
            raise ValueError(
                f"column lengths differ: {src.size}/{dst.size}/{ts.size}"
            )
        self._check_columns({"src": src, "dst": dst}, {"ts": ts})
        if not src.size:
            return np.zeros(0, dtype=bool)
        keys = self.plans.temporal_keys()
        n = self.graph.num_nodes
        wanted = (ts * n + src) * n + dst
        pos = np.searchsorted(keys, wanted)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == wanted[hit]
        return hit

    def batch_edge_window_counts(self, src, dst, t0, t1) -> np.ndarray:
        """Snapshots in ``[t0[i], t1[i]]`` containing ``src[i] -> dst[i]``.

        The temporal-range kernel: against the cached ``(src, dst,
        t)``-sorted edge keys, each query is two binary searches —
        O(log M) instead of the per-query path's O(window) CSR probes.
        """
        src = _as_query_column(src, "src")
        dst = _as_query_column(dst, "dst")
        t0 = _as_query_column(t0, "t0")
        t1 = _as_query_column(t1, "t1")
        if not (src.size == dst.size == t0.size == t1.size):
            raise ValueError(
                f"column lengths differ: "
                f"{src.size}/{dst.size}/{t0.size}/{t1.size}"
            )
        self._check_columns(
            {"src": src, "dst": dst}, {"t0": t0, "t1": t1}
        )
        if np.any(t1 < t0):
            raise ValueError("empty time window: t1 < t0")
        if not src.size:
            return np.zeros(0, dtype=np.int64)
        keys = self.plans.pair_keys()
        t_len = self.graph.num_timesteps
        pair = (src * self.graph.num_nodes + dst) * t_len
        lo = np.searchsorted(keys, pair + t0, side="left")
        hi = np.searchsorted(keys, pair + t1, side="right")
        return hi - lo

    def batch_attribute_range_counts(self, ts, dims, lo, hi) -> np.ndarray:
        """Nodes with attribute ``dims[i]`` in ``[lo[i], hi[i]]`` at ``ts[i]``.

        The counting form of :meth:`attribute_range` (cardinality
        only, no id list): per distinct ``(t, dim)`` pair the cached
        sorted attribute order is probed with two vectorized
        ``searchsorted`` calls covering every query of that group.
        """
        ts = _as_query_column(ts, "ts")
        dims = _as_query_column(dims, "dims")
        lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
        if not (ts.size == dims.size == lo.size == hi.size):
            raise ValueError(
                f"column lengths differ: "
                f"{ts.size}/{dims.size}/{lo.size}/{hi.size}"
            )
        self._check_columns({}, {"ts": ts})
        if dims.size and (
            dims.min() < 0 or dims.max() >= self.graph.num_attributes
        ):
            raise IndexError(
                f"dims contains attributes out of range "
                f"0..{self.graph.num_attributes - 1}"
            )
        out = np.zeros(ts.size, dtype=np.int64)
        # group by composite (t, dim) key; both ranges are small ints
        composite = ts * max(self.graph.num_attributes, 1) + dims
        for _, sel in self._timestep_groups(composite):
            t, dim = int(ts[sel[0]]), int(dims[sel[0]])
            order = self.plans.attribute_order(t, dim)
            sorted_vals = self.graph.store.attributes[t, :, dim][order]
            out[sel] = np.searchsorted(
                sorted_vals, hi[sel], side="right"
            ) - np.searchsorted(sorted_vals, lo[sel], side="left")
        return out

    # ------------------------------------------------------------------
    # batched traversal kernels (frontier-vectorized multi-source BFS)
    # ------------------------------------------------------------------
    # Both kernels share one frontier representation: a flat int64
    # array of packed ``query_id * N + node`` keys carrying EVERY
    # query's frontier for the current level.  A level is one
    # ``np.repeat`` expansion over CSR indptr slices followed by a
    # dedup against a flat visited bitmap indexed by the same packed
    # keys — so a whole batch advances in a handful of kernel passes
    # with zero per-query Python.  Per-query state (visited sets,
    # remaining hop budgets, time windows) lives in the key packing,
    # the bitmap, and boolean masks, never in Python sets.

    def batch_two_hop(self, nodes, ts, ks=2) -> np.ndarray:
        """Nodes within ``ks[i]`` directed hops of ``nodes[i]`` at ``ts[i]``.

        The counting form of :meth:`two_hop_neighbors` /
        :meth:`k_hop` (cardinality only, source excluded), answered
        for the whole batch by frontier-vectorized multi-source BFS.
        ``ks`` broadcasts a scalar hop count (default 2, the TWO_HOP
        workload class) or accepts one hop budget per query; queries
        sharing a timestep share CSR plan lookups and kernel passes
        regardless of batch size.
        """
        nodes = _as_query_column(nodes, "nodes")
        ts = _as_query_column(ts, "ts")
        ks = np.asarray(ks, dtype=np.int64)
        if ks.ndim == 0:
            ks = np.full(nodes.size, int(ks), dtype=np.int64)
        if ks.ndim != 1:
            raise ValueError("ks must be one-dimensional")
        if not (nodes.size == ts.size == ks.size):
            raise ValueError(
                f"column lengths differ: {nodes.size}/{ts.size}/{ks.size}"
            )
        self._check_columns({"nodes": nodes}, {"ts": ts})
        if ks.size and ks.min() < 0:
            raise ValueError("k must be >= 0")
        out = np.zeros(nodes.size, dtype=np.int64)
        n = self.graph.num_nodes
        for t, sel in self._timestep_groups(ts):
            indptr, indices = self.plans.csr(t)
            # packed (local query, node) keys; local qids are distinct
            # per group, so sources stay disjoint even when node /
            # timestep repeat across queries.  The visited set is a
            # flat bitmap over the same key space: O(1) membership, no
            # sorted merges on the hot path.
            group_ks = ks[sel]
            keys = np.arange(sel.size, dtype=np.int64) * n + nodes[sel]
            visited = np.zeros(sel.size * n, dtype=bool)
            visited[keys] = True
            frontier = keys
            max_k = int(group_ks.max())
            level = 0
            while frontier.size and level < max_k:
                level += 1
                # queries whose hop budget is spent stop expanding
                active = frontier[group_ks[frontier // n] >= level]
                if not active.size:
                    break
                nxt = _expand_frontier(active, indptr, indices, n)
                fresh = nxt[~visited[nxt]] if nxt.size else nxt
                if not fresh.size:
                    break
                visited[fresh] = True
                frontier = dedup_keys(fresh)
            counts = visited.reshape(-1, n).sum(axis=1, dtype=np.int64)
            out[sel] = counts - 1  # visited includes the source
        return out

    def batch_temporal_reach(self, src, dst, t0, t1) -> np.ndarray:
        """Time-respecting reachability of ``src[i] -> dst[i]`` over
        ``[t0[i], t1[i]]``, one bool per query.

        The batched twin of :meth:`temporal_reachable`: one packed
        ``(query, node)`` bitmap advances across timesteps — step ``t``
        saturates every in-window unresolved query's reached set
        against timestep ``t``'s ``reach`` plan before moving to
        ``t + 1`` — so queries with overlapping windows share plan
        lookups and kernel passes.  Saturation walks the step's SCC
        condensation, not its nodes: a node reaches its whole strongly
        connected component at once, so a giant component costs one
        frontier pass instead of one per BFS level.  Resolved queries
        (target reached, or ``src == dst``) drop out immediately.
        """
        src = _as_query_column(src, "src")
        dst = _as_query_column(dst, "dst")
        t0 = _as_query_column(t0, "t0")
        t1 = _as_query_column(t1, "t1")
        if not (src.size == dst.size == t0.size == t1.size):
            raise ValueError(
                f"column lengths differ: "
                f"{src.size}/{dst.size}/{t0.size}/{t1.size}"
            )
        self._check_columns(
            {"src": src, "dst": dst}, {"t0": t0, "t1": t1}
        )
        if np.any(t1 < t0):
            raise ValueError("empty time window: t1 < t0")
        out = src == dst
        if not src.size or out.all():
            return out
        n = self.graph.num_nodes
        qid_base = np.arange(src.size, dtype=np.int64) * n
        # flat visited bitmap over the packed (query, node) key space:
        # O(1) membership for seeding and the final target probe
        visited = np.zeros(src.size * n, dtype=bool)
        visited[qid_base + src] = True
        targets = qid_base + dst
        rows_of = visited.reshape(-1, n)
        for t in range(int(t0.min()), int(t1.max()) + 1):
            active = np.flatnonzero(~out & (t0 <= t) & (t <= t1))
            if not active.size:
                continue
            labels, (dag_indptr, dag_indices) = self.plans.reach(t)
            c = dag_indptr.size - 1
            # each snapshot's edges are concurrent: a reached node
            # reaches its whole SCC, so seed packed (active query, SCC)
            # keys from everything reached so far and saturate the
            # step over the condensation DAG
            rows, cols = np.nonzero(rows_of[active])
            reached = np.zeros(active.size * c, dtype=bool)
            reached[rows * c + labels[cols]] = True
            frontier = np.flatnonzero(reached)
            while frontier.size:
                nxt = _expand_frontier(frontier, dag_indptr, dag_indices, c)
                fresh = nxt[~reached[nxt]] if nxt.size else nxt
                if not fresh.size:
                    break
                reached[fresh] = True
                frontier = dedup_keys(fresh)
            # every member of a reached SCC is reached; the seeds hold
            # the SCC of each node reached before, so this only adds
            rows_of[active] = reached.reshape(-1, c)[:, labels]
            out[active] = visited[targets[active]]
        return out

    # ------------------------------------------------------------------
    # batched per-snapshot analytics (one plan lookup per timestep)
    # ------------------------------------------------------------------
    def batch_triangle_counts(self, ts) -> np.ndarray:
        """Undirected triangle count of snapshot ``ts[i]``, one per query.

        Queries sharing a timestep share one ``triangles`` plan lookup;
        the plan itself is built once per timestep and cached.
        """
        ts = _as_query_column(ts, "ts")
        self._check_columns({}, {"ts": ts})
        out = np.zeros(ts.size, dtype=np.int64)
        for t, sel in self._timestep_groups(ts):
            out[sel] = self.plans.triangles(t)
        return out

    def batch_degree_topk(
        self, ts, ks, direction: str = "out"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``ks[i]`` highest-degree node ids at ``ts[i]``, CSR-packed.

        Returns ``(offsets, ids)`` like :meth:`batch_neighbors`: query
        ``i``'s ids (ties by id, ascending) are
        ``ids[offsets[i]:offsets[i + 1]]``, ``min(ks[i], N)`` of them.
        ``ks`` broadcasts a scalar; every query of one timestep slices
        the same cached ``degree_order`` plan.
        """
        if direction not in ("out", "in", "total"):
            raise ValueError(f"unknown direction {direction!r}")
        ts = _as_query_column(ts, "ts")
        ks = np.asarray(ks, dtype=np.int64)
        if ks.ndim == 0:
            ks = np.full(ts.size, int(ks), dtype=np.int64)
        if ks.ndim != 1:
            raise ValueError("ks must be one-dimensional")
        if ts.size != ks.size:
            raise ValueError(f"column lengths differ: {ts.size}/{ks.size}")
        self._check_columns({}, {"ts": ts})
        if ks.size and ks.min() < 0:
            raise ValueError("k must be >= 0")
        lens = np.minimum(ks, self.graph.num_nodes)
        offsets = np.zeros(ts.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        ids = np.empty(offsets[-1], dtype=np.int64)
        for t, sel in self._timestep_groups(ts):
            group_lens = lens[sel]
            order = self.plans.degree_order(t, direction)
            # per-element rank within its own query, 0..len-1
            intra = np.arange(group_lens.sum(), dtype=np.int64) - np.repeat(
                np.cumsum(group_lens) - group_lens, group_lens
            )
            ids[np.repeat(offsets[sel], group_lens) + intra] = order[intra]
        return offsets, ids

    def _timestep_groups(self, ts: np.ndarray):
        """Yield ``(t, index_array)`` per distinct timestep in ``ts``.

        Grouping is by sorted unique timestep, so a mixed-timestep
        batch costs one plan lookup per *distinct* timestep and the
        per-group work stays fully vectorized.
        """
        if not ts.size:
            return
        order = np.argsort(ts, kind="stable")
        sorted_ts = ts[order]
        boundaries = np.flatnonzero(
            np.r_[True, sorted_ts[1:] != sorted_ts[:-1]]
        )
        for start, stop in zip(
            boundaries, np.r_[boundaries[1:], sorted_ts.size]
        ):
            yield int(sorted_ts[start]), order[start:stop]

    # ------------------------------------------------------------------
    # per-query twins of the batched kernels (parity anchors)
    # ------------------------------------------------------------------
    def _reference_batch_degrees(
        self, nodes, ts, direction: str = "out"
    ) -> np.ndarray:
        nodes = _as_query_column(nodes, "nodes")
        ts = _as_query_column(ts, "ts")
        out = []
        for v, t in zip(nodes.tolist(), ts.tolist()):
            if direction == "out":
                out.append(len(self.out_neighbors(v, t)))
            elif direction == "in":
                out.append(len(self.in_neighbors(v, t)))
            else:
                out.append(
                    len(self.out_neighbors(v, t))
                    + len(self.in_neighbors(v, t))
                )
        return np.asarray(out, dtype=np.int64).reshape(-1)

    def _reference_batch_neighbors(
        self, nodes, ts, direction: str = "out"
    ) -> Tuple[np.ndarray, np.ndarray]:
        nodes = _as_query_column(nodes, "nodes")
        ts = _as_query_column(ts, "ts")
        lookup = self.out_neighbors if direction == "out" else self.in_neighbors
        rows = [lookup(v, t) for v, t in zip(nodes.tolist(), ts.tolist())]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=offsets[1:])
        neighbors = np.asarray(
            [x for row in rows for x in row], dtype=np.int64
        ).reshape(-1)
        return offsets, neighbors

    def _reference_batch_has_edge(self, src, dst, ts) -> np.ndarray:
        src = _as_query_column(src, "src")
        dst = _as_query_column(dst, "dst")
        ts = _as_query_column(ts, "ts")
        return np.asarray(
            [
                self.has_edge(u, v, t)
                for u, v, t in zip(src.tolist(), dst.tolist(), ts.tolist())
            ],
            dtype=bool,
        ).reshape(-1)

    def _reference_batch_attribute_range_counts(
        self, ts, dims, lo, hi
    ) -> np.ndarray:
        ts = _as_query_column(ts, "ts")
        dims = _as_query_column(dims, "dims")
        lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
        return np.asarray(
            [
                len(self.attribute_range(t, d, a, b))
                for t, d, a, b in zip(
                    ts.tolist(), dims.tolist(), lo.tolist(), hi.tolist()
                )
            ],
            dtype=np.int64,
        ).reshape(-1)

    def _reference_batch_edge_window_counts(self, src, dst, t0, t1) -> np.ndarray:
        src = _as_query_column(src, "src")
        dst = _as_query_column(dst, "dst")
        t0 = _as_query_column(t0, "t0")
        t1 = _as_query_column(t1, "t1")
        return np.asarray(
            [
                self.edge_window_count(u, v, a, b)
                for u, v, a, b in zip(
                    src.tolist(), dst.tolist(), t0.tolist(), t1.tolist()
                )
            ],
            dtype=np.int64,
        ).reshape(-1)

    def _reference_batch_two_hop(self, nodes, ts, ks=2) -> np.ndarray:
        nodes = _as_query_column(nodes, "nodes")
        ts = _as_query_column(ts, "ts")
        ks = np.asarray(ks, dtype=np.int64)
        if ks.ndim == 0:
            ks = np.full(nodes.size, int(ks), dtype=np.int64)
        return np.asarray(
            [
                len(self.k_hop(v, t, k))
                for v, t, k in zip(
                    nodes.tolist(), ts.tolist(), ks.tolist()
                )
            ],
            dtype=np.int64,
        ).reshape(-1)

    def _reference_batch_temporal_reach(self, src, dst, t0, t1) -> np.ndarray:
        src = _as_query_column(src, "src")
        dst = _as_query_column(dst, "dst")
        t0 = _as_query_column(t0, "t0")
        t1 = _as_query_column(t1, "t1")
        return np.asarray(
            [
                self.temporal_reachable(u, v, a, b)
                for u, v, a, b in zip(
                    src.tolist(), dst.tolist(), t0.tolist(), t1.tolist()
                )
            ],
            dtype=bool,
        ).reshape(-1)

    def _reference_batch_triangle_counts(self, ts) -> np.ndarray:
        ts = _as_query_column(ts, "ts")
        out = []
        for t in ts.tolist():
            self._check_t(t)
            out.append(props.triangle_count(self.graph[t]))
        return np.asarray(out, dtype=np.int64).reshape(-1)

    def _reference_batch_degree_topk(
        self, ts, ks, direction: str = "out"
    ) -> Tuple[np.ndarray, np.ndarray]:
        ts = _as_query_column(ts, "ts")
        ks = np.asarray(ks, dtype=np.int64)
        if ks.ndim == 0:
            ks = np.full(ts.size, int(ks), dtype=np.int64)
        rows = []
        for t, k in zip(ts.tolist(), ks.tolist()):
            self._check_t(t)
            if k < 0:
                raise ValueError("k must be >= 0")
            snap = self.graph[t]
            if direction == "out":
                deg = snap.out_degrees()
            elif direction == "in":
                deg = snap.in_degrees()
            elif direction == "total":
                deg = snap.degrees()
            else:
                raise ValueError(f"unknown direction {direction!r}")
            order = np.lexsort((np.arange(len(deg)), -deg))
            rows.append(order[:k].tolist())
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=offsets[1:])
        ids = np.asarray(
            [x for row in rows for x in row], dtype=np.int64
        ).reshape(-1)
        return offsets, ids
