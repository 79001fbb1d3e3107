"""Live query serving: request batches pinned to epoch snapshots.

:class:`LiveQueryService` closes the gap between
:class:`~repro.workloads.service.QueryService` (frozen snapshots) and
:class:`~repro.graph.live.LiveStoreBuilder` (ingestion): a writer
keeps sealing timesteps while readers run query batches, and **each
request batch is answered against a single pinned epoch** — the
freshest sealed snapshot at batch start.  The consistency contract is
the builder's (``docs/workloads.md``): results at epoch E are
bit-identical to the same queries against a bulk-built store of E's
sealed events, regardless of concurrent ingestion.

One plan cache across every epoch
---------------------------------
Sealed timesteps are immutable, so their CSR/CSC/attribute plans are
valid *forever* — rebuilding them per epoch would discard exactly the
residency a serving cache exists for.  The service therefore shares
one :class:`~repro.workloads.cache.SnapshotPlanCache` across epochs
and gives each epoch's engine an :class:`EpochPlanView`, which routes
lookups by how the underlying data can change:

* **Sealed timesteps** (``t < epoch``) use the ordinary per-timestep
  keys (``("csr", t)``, ``("triangles", t)``, ...) — content-stable
  across epochs, shared by every view, never invalidated.  A sealed
  step's triangle count, degree order and SCC condensation are
  therefore computed once and answer every later epoch's queries.
* **Open timesteps** (``t >= epoch``, empty at this epoch) use
  ``("csr", t, "open")``-style keys (``("triangles", t, "open")``,
  ``("degree_order", t, direction, "open")``, ``("reach", t,
  "open")`` for the analytics plans), built from the view's own
  snapshot.  When timestep ``t`` seals, the service calls
  :meth:`~repro.workloads.cache.SnapshotPlanCache.invalidate_step`
  for it — the open plans are stale for the new epoch.  An in-flight
  older batch that still needs them simply rebuilds from its pinned
  snapshot (invalidation never changes results).
* **Whole-store plans** (the sorted edge-key columns) depend on every
  sealed event, so they are keyed per epoch and dropped wholesale via
  :meth:`~repro.workloads.cache.SnapshotPlanCache.invalidate_store_plans`
  on each advance.
* **Attribute plans** are epoch-independent (the live builder fixes
  the attribute block up front) and always use the shared keys.

Reliability (``docs/reliability.md``): deadlines, retries and
admission ride the wrapped ``QueryService`` unchanged.  A faulting
refresh (the ``live.snapshot`` injection point) degrades to serving
the previous epoch — a staleness event, never an error — and is
counted in :class:`LiveServiceStats`; a faulting seal
(``live.advance_epoch``) is the writer's to retry, and leaves the
builder unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.graph.dynamic import DynamicAttributedGraph
from repro.graph.live import LiveStoreBuilder
from repro.graph.store import TemporalEdgeStore
from repro.reliability import RetryPolicy
from repro.workloads.cache import (
    PlanCacheStats,
    SnapshotPlanCache,
    _csc_plan,
    _csr_plan,
    _degree_order_plan,
    _pair_keys_plan,
    _reach_plan,
    _temporal_keys_plan,
    _triangles_plan,
)
from repro.workloads.engine import GraphQueryEngine
from repro.workloads.service import QueryRequest, QueryResult, QueryService

__all__ = ["EpochPlanView", "LiveQueryService", "LiveServiceStats"]


class EpochPlanView:
    """Plan-protocol adapter pinning one epoch over a shared cache.

    Quacks like a :class:`SnapshotPlanCache` to a
    :class:`GraphQueryEngine` (``store`` + the eight plan methods +
    ``stats``), but routes each lookup through the *shared* cache with
    epoch-aware keys — see the module docstring for the key scheme.
    Correctness does not depend on what is resident: every build
    closure reads from this view's own immutable snapshot (open steps,
    whole-store plans) or from content that is bit-equal in every
    store that can be bound to the shared cache (sealed steps), so
    eviction and invalidation at any moment only cost a rebuild.
    """

    __slots__ = ("shared", "store", "epoch")

    def __init__(
        self,
        shared: SnapshotPlanCache,
        store: TemporalEdgeStore,
        epoch: int,
    ):
        self.shared = shared
        self.store = store
        self.epoch = int(epoch)

    # -- per-timestep plans -------------------------------------------
    def _step_plan(self, shared_lookup, build, head: str, t: int, *args):
        """Sealed ``t`` reads the shared key; open ``t`` its own snapshot."""
        if t < self.epoch:
            return shared_lookup(t, *args)
        return self.shared.get_or_build(
            (head, t, *args, "open"), partial(build, self.store, t, *args)
        )

    def csr(self, t: int):
        return self._step_plan(self.shared.csr, _csr_plan, "csr", t)

    def csc(self, t: int):
        return self._step_plan(self.shared.csc, _csc_plan, "csc", t)

    def triangles(self, t: int):
        return self._step_plan(
            self.shared.triangles, _triangles_plan, "triangles", t
        )

    def degree_order(self, t: int, direction: str):
        return self._step_plan(
            self.shared.degree_order, _degree_order_plan, "degree_order",
            t, direction,
        )

    def reach(self, t: int):
        return self._step_plan(self.shared.reach, _reach_plan, "reach", t)

    def attribute_order(self, t: int, dim: int):
        # the attribute block is fixed at builder construction, so the
        # shared per-(t, dim) plan is valid at every epoch
        return self.shared.attribute_order(t, dim)

    # -- whole-store plans (epoch-keyed) ------------------------------
    def temporal_keys(self):
        return self.shared.get_or_build(
            ("temporal_keys", self.epoch),
            partial(_temporal_keys_plan, self.store),
        )

    def pair_keys(self):
        return self.shared.get_or_build(
            ("pair_keys", self.epoch), partial(_pair_keys_plan, self.store)
        )

    # -----------------------------------------------------------------
    def stats(self) -> PlanCacheStats:
        return self.shared.stats()

    def __repr__(self) -> str:
        return f"EpochPlanView(epoch={self.epoch}, shared={self.shared!r})"


@dataclass(frozen=True)
class LiveServiceStats:
    """Point-in-time refresh counters of one :class:`LiveQueryService`.

    ``epoch`` is the currently pinned epoch; ``refreshes`` counts
    successful :meth:`~LiveQueryService.refresh` calls (including
    no-op ones at an unchanged epoch); ``epoch_advances`` counts the
    ones that actually moved the pinned epoch; ``stale_refreshes``
    counts refreshes that faulted (``live.snapshot``) and degraded to
    serving the previous epoch.
    """

    epoch: int
    refreshes: int
    epoch_advances: int
    stale_refreshes: int


class LiveQueryService:
    """Serve query batches against a :class:`LiveStoreBuilder`.

    Parameters mirror :class:`~repro.workloads.service.QueryService`
    (``executor`` serial/thread, ``max_workers``,
    ``retry_policy``, ``deadline_seconds``, ``max_pending``);
    ``cache_memory_budget_bytes`` sizes the one plan cache shared
    across every epoch.

    :meth:`run_batch` refreshes to the freshest sealed epoch, pins it,
    and returns ``(epoch, results)`` — so a caller can always name the
    exact event prefix its answers describe (and verify them against a
    bulk-built store of that prefix, as ``verify-queries --live``
    does).
    """

    def __init__(
        self,
        builder: LiveStoreBuilder,
        *,
        executor: str = "thread",
        max_workers: Optional[int] = None,
        cache_memory_budget_bytes: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        deadline_seconds: Optional[float] = None,
        max_pending: Optional[int] = None,
    ):
        self.builder = builder
        # construction is not a degradable refresh: a faulting first
        # snapshot fails loudly here instead of serving nothing
        epoch, store = builder.snapshot()
        self._cache = SnapshotPlanCache(
            store, memory_budget_bytes=cache_memory_budget_bytes
        )
        self._swap = threading.Lock()
        self._epoch = epoch
        self._engine = self._make_engine(store, epoch)
        self._refreshes = 0
        self._epoch_advances = 0
        self._stale_refreshes = 0
        self._service = QueryService(
            self._engine,
            executor=executor,
            max_workers=max_workers,
            retry_policy=retry_policy,
            deadline_seconds=deadline_seconds,
            max_pending=max_pending,
        )

    def _make_engine(
        self, store: TemporalEdgeStore, epoch: int
    ) -> GraphQueryEngine:
        view = EpochPlanView(self._cache, store, epoch)
        return GraphQueryEngine(
            DynamicAttributedGraph.from_store(store), plan_cache=view
        )

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The currently pinned epoch."""
        with self._swap:
            return self._epoch

    def refresh(self) -> int:
        """Advance to the builder's freshest sealed epoch; returns it.

        On advance, plans for the newly sealed timesteps and the
        whole-store edge-key plans are invalidated in the shared cache
        before the new epoch's engine is published — batches already
        in flight keep their pinned engines and stay bit-exact at
        their epoch.  A faulting snapshot (``live.snapshot``) degrades
        to the previous epoch (staleness, not failure) and is counted
        in :meth:`live_stats`.
        """
        try:
            epoch, store = self.builder.snapshot()
        except Exception:
            with self._swap:
                self._stale_refreshes += 1
                return self._epoch
        with self._swap:
            self._refreshes += 1
            if epoch == self._epoch:
                return self._epoch
            for t in range(self._epoch, epoch):
                self._cache.invalidate_step(t)
            self._cache.invalidate_store_plans()
            # rebind so shared sealed-step plans build from a store
            # that has them; monotone, content-equal for sealed steps
            self._cache.store = store
            self._engine = self._make_engine(store, epoch)
            self._epoch = epoch
            self._epoch_advances += 1
            return epoch

    def run_batch(
        self,
        requests: Sequence[QueryRequest],
        *,
        refresh: bool = True,
    ) -> Tuple[int, List[QueryResult]]:
        """Execute a request batch against one pinned epoch.

        Returns ``(epoch, results)`` with results in request order —
        the :class:`~repro.workloads.service.QueryService` contract
        (per-request failures as structured values, admission
        overflow raised) at a named epoch.  ``refresh=False`` skips
        the epoch advance and serves whatever is currently pinned.
        """
        if refresh:
            self.refresh()
        with self._swap:
            epoch, engine = self._epoch, self._engine
        return epoch, self._service.run_batch(requests, engine=engine)

    # ------------------------------------------------------------------
    def live_stats(self) -> LiveServiceStats:
        """Epoch/refresh counters (see :class:`LiveServiceStats`)."""
        with self._swap:
            return LiveServiceStats(
                epoch=self._epoch,
                refreshes=self._refreshes,
                epoch_advances=self._epoch_advances,
                stale_refreshes=self._stale_refreshes,
            )

    def plan_cache_stats(self) -> PlanCacheStats:
        """Counters of the one cache shared across every epoch."""
        return self._cache.stats()

    def admission_stats(self):
        """Pending/admitted/shed counters of the bounded queue."""
        return self._service.admission_stats()

    def close(self) -> None:
        """Shut down the wrapped service's pool (no-op for serial)."""
        self._service.close()

    def __enter__(self) -> "LiveQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
