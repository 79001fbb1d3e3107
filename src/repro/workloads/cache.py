"""Bounded snapshot-plan cache: the serving layer's index memory model.

A *plan* is a per-timestep (or whole-graph) index materialization a
query kernel runs against: the forward CSR of one snapshot, its
reverse CSC, a sorted attribute order for range scans, the global
sorted edge-key columns the temporal kernels binary-search, or a
per-snapshot analytics memo (the triangle count of one snapshot, its
degree-ranked node order, its SCC condensation) answered once per
timestep instead of once per query.  The
:class:`~repro.graph.store.TemporalEdgeStore` caches CSR/CSC per
timestep *unboundedly* — fine for analytics sweeps that touch every
timestep once, wrong for a long-lived serving process where T is
large and traffic concentrates on a hot subset of timesteps.

:class:`SnapshotPlanCache` is the bounded counterpart: an LRU over
plan materializations with ``memory_budget_bytes``-style sizing that
mirrors :class:`~repro.graph.streams.StreamingStoreBuilder` — the
budget bounds the bytes *owned* by cached plans (zero-copy views of
the store's shared columns cost nothing and are not charged), and the
least-recently-used plans are evicted once the owned total exceeds it.
Evicting a plan never changes results — the next request rebuilds it
from the store columns — so the budget is purely a residency knob.

The cache is thread-safe (one lock around the LRU bookkeeping; plan
construction runs outside it) so a single instance can back every
request of a concurrent :class:`~repro.workloads.service.QueryService`.

The cache is also a *degradation* point (``docs/reliability.md``): a
fault in the cache path — provoked deterministically through the
``cache.plan`` injection point — bypasses the cache for that lookup
and builds the plan directly from the store columns.  Results are
unchanged (eviction never changes results, and neither does never
inserting); only residency suffers.  Bypasses are counted in
:class:`PlanCacheStats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from repro.graph.sparse import csr_from_keys, dedup_keys
from repro.reliability import InjectedFault, fault_injector

__all__ = ["PlanCacheStats", "SnapshotPlanCache"]

#: Key heads of per-timestep plans — ``key[1]`` is the timestep.
#: Extension keys (the live tier's ``("csr", t, "open")`` variants)
#: share these heads, so :meth:`SnapshotPlanCache.invalidate_step`
#: covers them too.
_STEP_PLAN_HEADS = (
    "csr", "csc", "attr", "triangles", "degree_order", "reach",
)

#: Key heads of whole-store plans (epoch-qualified in the live tier).
_STORE_PLAN_HEADS = ("temporal_keys", "pair_keys")


@dataclass(frozen=True)
class PlanCacheStats:
    """Point-in-time counters of one :class:`SnapshotPlanCache`.

    ``hits`` / ``misses`` count plan lookups (a miss includes the
    build); ``evictions`` counts plans dropped to stay under budget;
    ``resident_plans`` / ``resident_bytes`` describe what is cached
    *now* (owned bytes only — zero-copy column views are free);
    ``bypasses`` counts lookups that degraded around a cache fault
    (plan built directly, never inserted — results unchanged);
    ``invalidations`` counts plans dropped through
    :meth:`SnapshotPlanCache.invalidate_step` /
    :meth:`~SnapshotPlanCache.invalidate_store_plans` (the live tier
    fires these as timesteps seal).

    Every resident plan entered via a miss and leaves via eviction,
    invalidation or ``clear`` (counted as evictions), so in
    single-threaded use ``resident_plans == misses - evictions -
    invalidations``; concurrent lookups can lose a build race (a miss
    that inserts nothing), relaxing the identity to ``<=``.
    """

    hits: int
    misses: int
    evictions: int
    resident_plans: int
    resident_bytes: int
    bypasses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SnapshotPlanCache:
    """Bounded LRU over per-timestep index materializations.

    Parameters
    ----------
    store:
        The :class:`~repro.graph.store.TemporalEdgeStore` plans are
        derived from.  The store caches no index of its own
        (``csr_at`` / ``csc_at`` build from the zero-copy column
        slices), so *this* object's budget is the serving path's whole
        index footprint.
    memory_budget_bytes:
        Bound on the bytes owned by resident plans.  ``None`` (the
        default) means unbounded.
        The most recently used plan is always kept resident even if it
        alone exceeds the budget (a query in flight needs its plan);
        everything else is evicted LRU-first.

    Plans are immutable (arrays, tuples of arrays, or scalars); a plan
    handed to a caller stays valid after eviction, eviction only drops
    the cache's reference.
    """

    def __init__(
        self,
        store,
        *,
        memory_budget_bytes: Optional[int] = None,
    ):
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        self.store = store
        self.memory_budget_bytes = memory_budget_bytes
        self._plans: "OrderedDict[Tuple, Tuple[object, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._bypasses = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _get_or_build(
        self, key: Tuple, build: Callable[[], Tuple[object, int]]
    ):
        """Return the plan under ``key``, building it on a miss.

        ``build`` returns ``(plan, owned_bytes)`` and runs *outside*
        the lock: plans are deterministic, so a racing double-build
        wastes work but can never corrupt the cache — the second
        writer finds the key present and discards its copy.

        A fault injected at the ``cache.plan`` point degrades to a
        cache *bypass*: the plan is built directly and not inserted,
        so the lookup still answers correctly.
        """
        try:
            fault_injector.fire("cache.plan", key=key)
        except InjectedFault:
            with self._lock:
                self._bypasses += 1
            return build()[0]
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                return entry[0]
        plan, owned = build()
        with self._lock:
            self._misses += 1
            entry = self._plans.get(key)
            if entry is not None:  # lost a build race; keep the winner
                self._plans.move_to_end(key)
                return entry[0]
            self._plans[key] = (plan, owned)
            self._bytes += owned
            self._evict_locked()
        return plan

    def _evict_locked(self) -> None:
        """Drop LRU plans until under budget (newest always survives)."""
        if self.memory_budget_bytes is None:
            return
        while len(self._plans) > 1 and self._bytes > self.memory_budget_bytes:
            _, (_, owned) = self._plans.popitem(last=False)
            self._bytes -= owned
            self._evictions += 1

    def get_or_build(
        self, key: Tuple, build: Callable[[], Tuple[object, int]]
    ):
        """Extension point: cache an arbitrary-keyed plan.

        ``build`` returns ``(plan, owned_bytes)`` (use
        :meth:`_owned_nbytes`) and runs outside the lock; the lookup
        gets the same LRU/budget/fault-bypass semantics as the
        built-in plans.  Used by the live tier's epoch plan views to
        key open-step and per-epoch whole-store plans
        (:mod:`repro.workloads.live`); custom keys should reuse the
        built-in key heads (``"csr"``, ``"temporal_keys"``, ...) so
        the invalidation APIs cover them.
        """
        return self._get_or_build(key, build)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def _invalidate_locked(self, doomed) -> int:
        for key in doomed:
            _, owned = self._plans.pop(key)
            self._bytes -= owned
        self._invalidations += len(doomed)
        return len(doomed)

    def invalidate_step(self, t: int) -> int:
        """Drop every resident per-timestep plan of timestep ``t``.

        Covers the built-in ``("csr", t)`` / ``("csc", t)`` /
        ``("attr", t, dim)`` / ``("triangles", t)`` /
        ``("degree_order", t, direction)`` / ``("reach", t)`` keys and
        any extension key sharing those heads (the live tier's
        open-step variants).
        Returns the number of plans dropped.  Like eviction, invalidation never
        changes results — the next lookup rebuilds from the store
        columns — and the owned-bytes account shrinks with each drop,
        so the budget is never exceeded mid-invalidation.  The live
        tier calls this for each timestep as it seals
        (:class:`~repro.workloads.live.LiveQueryService`).
        """
        with self._lock:
            return self._invalidate_locked(
                [
                    key
                    for key in self._plans
                    if key[0] in _STEP_PLAN_HEADS
                    and len(key) >= 2
                    and key[1] == t
                ]
            )

    def invalidate_store_plans(self) -> int:
        """Drop every resident whole-store plan (edge-key columns).

        The ``("temporal_keys", ...)`` / ``("pair_keys", ...)`` plans
        span the entire store, so any structural change (a newly
        sealed timestep) stales them all at once — per-timestep plans
        are untouched.  Returns the number of plans dropped.
        """
        with self._lock:
            return self._invalidate_locked(
                [key for key in self._plans if key[0] in _STORE_PLAN_HEADS]
            )

    @staticmethod
    def _owned_nbytes(*arrays: np.ndarray) -> int:
        """Bytes the cache is charged for: fresh arrays, not views.

        An array whose ``base`` is set is a view of memory someone
        else owns (the store's shared columns) — holding it is free.
        """
        return sum(a.nbytes for a in arrays if a.base is None)

    # ------------------------------------------------------------------
    # plans
    # ------------------------------------------------------------------
    def csr(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Forward CSR of timestep ``t``: ``(indptr, indices)``.

        ``indices`` is the zero-copy ``dst`` column slice (CSR order
        is the store's canonical order), so only the ``(N + 1,)``
        ``indptr`` counts against the budget.
        """
        return self._get_or_build(
            ("csr", t), partial(_csr_plan, self.store, t)
        )

    def csc(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Reverse CSR (in-edges) of timestep ``t``: ``(indptr, indices)``.

        Costs one O(M_t log M_t) re-sort to build; both arrays are
        fresh and count against the budget.
        """
        return self._get_or_build(
            ("csc", t), partial(_csc_plan, self.store, t)
        )

    def attribute_order(self, t: int, dim: int) -> np.ndarray:
        """Stable argsort of attribute ``dim`` at timestep ``t``."""
        def build():
            values = self.store.attributes[t, :, dim]
            order = np.argsort(values, kind="stable")
            return order, self._owned_nbytes(order)

        return self._get_or_build(("attr", t, dim), build)

    def triangles(self, t: int) -> int:
        """Undirected triangle count of timestep ``t`` (a scalar memo).

        Built once from the store's loop-free CSR view
        (``store.sparse_at(t)``) — one N×N-bitmap kernel per timestep
        instead of one per query.  A Python int owns no array memory,
        so it is charged 0 bytes.
        """
        return self._get_or_build(
            ("triangles", t), partial(_triangles_plan, self.store, t)
        )

    def degree_order(self, t: int, direction: str) -> np.ndarray:
        """Node ids of timestep ``t`` ranked by degree, ties by id.

        The stable ``lexsort((ids, -deg))`` order over the store's
        (loop-free) ``"out"`` / ``"in"`` / ``"total"`` degrees; a
        top-``k`` query is its first ``k`` entries.  ``N`` int64,
        charged against the budget.
        """
        return self._get_or_build(
            ("degree_order", t, direction),
            partial(_degree_order_plan, self.store, t, direction),
        )

    def reach(
        self, t: int
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """SCC condensation of timestep ``t``: ``(labels, dag)``.

        ``labels`` maps each node to its strongly connected component
        (``N`` int64, from scipy's ``connected_components(...,
        connection="strong")``); ``dag`` is the deduplicated
        ``(indptr, indices)`` CSR of the condensation, one edge
        ``a -> b`` between distinct components wherever a step edge
        crosses from ``a`` to ``b``.  The temporal-reach kernel
        saturates a step over the DAG instead of the node graph.
        Every array is fresh and charged against the budget.
        """
        return self._get_or_build(
            ("reach", t), partial(_reach_plan, self.store, t)
        )

    def temporal_keys(self) -> np.ndarray:
        """Sorted composite ``(t, src, dst)`` edge keys (whole graph).

        The store's canonical order makes these strictly increasing;
        the edge-existence kernel answers a whole batch with one
        ``np.searchsorted`` against them.
        """
        return self._get_or_build(
            ("temporal_keys",), partial(_temporal_keys_plan, self.store)
        )

    def pair_keys(self) -> np.ndarray:
        """Sorted composite ``(src, dst, t)`` edge keys (whole graph).

        The per-*pair* orientation: all timesteps of one ``(u, v)``
        edge are contiguous, so a temporal-range query is two binary
        searches.  Built with one O(M log M) sort, then reused.
        """
        return self._get_or_build(
            ("pair_keys",), partial(_pair_keys_plan, self.store)
        )

    # ------------------------------------------------------------------
    def stats(self) -> PlanCacheStats:
        """Snapshot of the hit/miss/eviction/residency counters."""
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                resident_plans=len(self._plans),
                resident_bytes=self._bytes,
                bypasses=self._bypasses,
                invalidations=self._invalidations,
            )

    def clear(self) -> None:
        """Drop every resident plan (counters keep accumulating)."""
        with self._lock:
            self._evictions += len(self._plans)
            self._plans.clear()
            self._bytes = 0

    def __repr__(self) -> str:
        s = self.stats()
        budget = (
            "unbounded"
            if self.memory_budget_bytes is None
            else f"{self.memory_budget_bytes}B"
        )
        return (
            f"SnapshotPlanCache(plans={s.resident_plans}, "
            f"bytes={s.resident_bytes}, budget={budget}, "
            f"hit_rate={s.hit_rate:.2f})"
        )


# ----------------------------------------------------------------------
# plan builders: ``(plan, owned_bytes)`` from one store.  Shared by the
# cache's own lookups and the live tier's open-step / per-epoch keys
# (:class:`~repro.workloads.live.EpochPlanView`), so both build every
# plan the same way.
# ----------------------------------------------------------------------
def _csr_plan(store, t: int):
    indptr, indices = store.csr_at(t)
    return (indptr, indices), SnapshotPlanCache._owned_nbytes(indptr, indices)


def _csc_plan(store, t: int):
    indptr, indices = store.csc_at(t)
    return (indptr, indices), SnapshotPlanCache._owned_nbytes(indptr, indices)


def _triangles_plan(store, t: int):
    return store.sparse_at(t).triangle_count(), 0


def _degree_order_plan(store, t: int, direction: str):
    if direction == "out":
        deg = store.out_degrees_at(t)
    elif direction == "in":
        deg = store.in_degrees_at(t)
    elif direction == "total":
        deg = store.out_degrees_at(t) + store.in_degrees_at(t)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    order = np.lexsort((np.arange(deg.size), -deg))
    return order, SnapshotPlanCache._owned_nbytes(order)


def _reach_plan(store, t: int):
    n = store.num_nodes
    indptr, indices = store.csr_at(t)
    graph = csr_array(
        (np.ones(indices.size, dtype=bool), indices, indptr), shape=(n, n)
    )
    count, labels = connected_components(
        graph, directed=True, connection="strong"
    )
    labels = labels.astype(np.int64)
    tails = np.repeat(labels, np.diff(indptr))
    heads = labels[indices]
    cross = tails != heads
    dag = csr_from_keys(dedup_keys(tails[cross] * count + heads[cross]), count)
    return (labels, dag), SnapshotPlanCache._owned_nbytes(labels, *dag)


def _temporal_keys_plan(store):
    keys = store.temporal_edge_keys()
    return keys, SnapshotPlanCache._owned_nbytes(keys)


def _pair_keys_plan(store):
    keys = np.sort(
        (store.src * store.num_nodes + store.dst) * store.num_timesteps
        + store.t
    )
    return keys, SnapshotPlanCache._owned_nbytes(keys)
