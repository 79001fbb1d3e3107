"""LiveQueryService: query-while-ingesting with pinned epochs.

Readers hammer a :class:`~repro.workloads.live.LiveQueryService` while
a writer seals timesteps into its
:class:`~repro.graph.live.LiveStoreBuilder`.  Pinned invariants:

* **No torn reads** — every served batch reports an epoch E, and its
  cardinalities are bit-identical to the same queries against a
  bulk-built store of E's sealed event prefix, whatever the writer
  was doing at the time.
* **Monotone epochs** — each reader observes a non-decreasing epoch
  sequence.
* **Deterministic per-epoch results** — serving the same batch twice
  at a pinned epoch returns identical cardinalities.
* **Stats reconcile** — the one shared plan cache's counters satisfy
  ``resident_plans == misses - evictions - invalidations`` in serial
  use (``<=`` under concurrency, where a lost build race double-counts
  a miss).

Chaos scenarios follow the ``REPRO_CHAOS_SEED`` convention.
"""

import os
import threading

import numpy as np
import pytest

from repro.graph.dynamic import DynamicAttributedGraph
from repro.graph.live import LiveStoreBuilder
from repro.graph.store import TemporalEdgeStore
from repro.reliability import (
    FaultPlan,
    InjectedFault,
    ServiceOverloadedError,
    fault_injector,
)
from repro.workloads import (
    GraphQueryEngine,
    LiveQueryService,
    QueryRequest,
    WorkloadConfig,
    WorkloadGenerator,
    run_queries_batched,
    serving_mix,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
WATCHDOG_SECONDS = 60.0

N, T = 60, 6


def make_stream(seed, m=600):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, N, size=m)
    dst = rng.integers(0, N, size=m)
    t = rng.integers(0, T, size=m)
    attrs = rng.normal(size=(T, N, 2))
    return src, dst, t, attrs


def make_requests(store, seed, num_queries=180, batch=30):
    graph = DynamicAttributedGraph.from_store(store)
    config = WorkloadConfig(
        num_queries=num_queries, mix=serving_mix(), seed=seed
    )
    queries = WorkloadGenerator(graph, config).generate()
    return [
        QueryRequest(queries[i:i + batch])
        for i in range(0, len(queries), batch)
    ]


class Oracle:
    """Bulk-built per-epoch reference engines over one event stream."""

    def __init__(self, src, dst, t, attrs):
        self.columns = (src, dst, t)
        self.attrs = attrs
        self._engines = {}

    def engine(self, epoch):
        if epoch not in self._engines:
            src, dst, t = self.columns
            keep = t < epoch
            store = TemporalEdgeStore(
                N, T, src[keep], dst[keep], t[keep], self.attrs
            )
            self._engines[epoch] = GraphQueryEngine(
                DynamicAttributedGraph.from_store(store)
            )
        return self._engines[epoch]

    def check(self, epoch, request, result):
        assert result.ok, f"request failed at epoch {epoch}: {result.error}"
        want, _ = run_queries_batched(self.engine(epoch), request.queries)
        assert np.array_equal(result.cardinalities, want), (
            f"torn read: batch at epoch {epoch} diverged from the "
            "bulk-built store of that epoch's prefix"
        )


def feed_all(builder, src, dst, t):
    order = np.argsort(t, kind="stable")
    builder.extend(src[order], dst[order], t[order])


class TestSerialEpochPinning:
    def test_every_epoch_matches_bulk_oracle(self):
        src, dst, t, attrs = make_stream(CHAOS_SEED)
        oracle = Oracle(src, dst, t, attrs)
        full = TemporalEdgeStore(N, T, src, dst, t, attrs)
        requests = make_requests(full, CHAOS_SEED)
        builder = LiveStoreBuilder(N, T, attributes=attrs)
        feed_all(builder, src, dst, t)
        with LiveQueryService(builder, executor="serial") as service:
            epochs_seen = []
            for _ in range(T):
                builder.seal_step()
                epoch, results = service.run_batch(requests)
                assert epoch == builder.epoch
                epochs_seen.append(epoch)
                for request, result in zip(requests, results):
                    oracle.check(epoch, request, result)
            assert epochs_seen == list(range(1, T + 1))

    def test_per_epoch_results_deterministic(self):
        src, dst, t, attrs = make_stream(CHAOS_SEED + 1)
        full = TemporalEdgeStore(N, T, src, dst, t, attrs)
        requests = make_requests(full, CHAOS_SEED + 1)
        builder = LiveStoreBuilder(N, T, attributes=attrs)
        feed_all(builder, src, dst, t)
        builder.seal_through(2)
        with LiveQueryService(builder, executor="serial") as service:
            epoch_a, first = service.run_batch(requests)
            # more sealed data exists, but refresh=False keeps the pin
            builder.seal_through(T - 1)
            epoch_b, second = service.run_batch(requests, refresh=False)
            assert epoch_a == epoch_b == 3
            for a, b in zip(first, second):
                assert np.array_equal(a.cardinalities, b.cardinalities)
            assert service.run_batch(requests)[0] == T

    def test_stats_reconciliation_identity(self):
        src, dst, t, attrs = make_stream(CHAOS_SEED + 2)
        full = TemporalEdgeStore(N, T, src, dst, t, attrs)
        requests = make_requests(full, CHAOS_SEED + 2)
        builder = LiveStoreBuilder(N, T, attributes=attrs)
        feed_all(builder, src, dst, t)
        with LiveQueryService(builder, executor="serial") as service:
            for _ in range(T):
                builder.seal_step()
                service.run_batch(requests)
            stats = service.plan_cache_stats()
        assert stats.invalidations > 0  # sealing invalidated open plans
        assert stats.hits > 0 and stats.misses > 0
        assert stats.bypasses == 0
        assert stats.resident_plans == (
            stats.misses - stats.evictions - stats.invalidations
        )

    def test_refresh_counters_and_no_op_refresh(self):
        src, dst, t, attrs = make_stream(CHAOS_SEED + 3)
        builder = LiveStoreBuilder(N, T, attributes=attrs)
        feed_all(builder, src, dst, t)
        with LiveQueryService(builder, executor="serial") as service:
            assert service.epoch == 0
            assert service.refresh() == 0  # nothing sealed yet
            builder.seal_through(1)
            assert service.refresh() == 2
            assert service.refresh() == 2
            live = service.live_stats()
        assert live.epoch == 2
        assert live.refreshes == 3
        assert live.epoch_advances == 1
        assert live.stale_refreshes == 0

    def test_overload_surfaces_through_live_service(self):
        src, dst, t, attrs = make_stream(CHAOS_SEED + 4)
        full = TemporalEdgeStore(N, T, src, dst, t, attrs)
        requests = make_requests(full, CHAOS_SEED + 4)
        builder = LiveStoreBuilder(N, T, attributes=attrs)
        feed_all(builder, src, dst, t)
        builder.seal_through(T - 1)
        with LiveQueryService(
            builder, executor="thread", max_workers=2, max_pending=1
        ) as service:
            with pytest.raises(ServiceOverloadedError):
                service.run_batch(requests)
            stats = service.admission_stats()
            assert stats["shed"] >= len(requests)
            # a batch inside the bound still serves normally
            epoch, results = service.run_batch(requests[:1])
            assert epoch == T and results[0].ok


class TestAnalyticsPlanLifecycle:
    """Per-step analytics plans: open-step memos die with the seal,
    sealed-step memos outlive the epoch that built them."""

    def test_seal_drops_open_plans_and_sealed_plans_hit(self):
        from repro.workloads import Query, QueryKind

        src, dst, t, attrs = make_stream(CHAOS_SEED + 9)
        builder = LiveStoreBuilder(N, T, attributes=attrs)
        feed_all(builder, src, dst, t)
        builder.seal_step()  # epoch 1: t=0 sealed, t=1 open
        request = QueryRequest([
            Query(QueryKind.TRIANGLE_COUNT, 0, ()),
            Query(QueryKind.DEGREE_TOPK, 0, (5,)),
            Query(QueryKind.TRIANGLE_COUNT, 1, ()),
            Query(QueryKind.DEGREE_TOPK, 1, (5,)),
        ])
        oracle = Oracle(src, dst, t, attrs)
        with LiveQueryService(builder, executor="serial") as service:
            epoch, results = service.run_batch([request])
            assert epoch == 1
            oracle.check(epoch, request, results[0])
            first = service.plan_cache_stats()
            # 2 shared sealed plans (t=0) + 2 "open" plans (t=1)
            assert first.misses == 4 and first.hits == 0

            builder.seal_step()  # t=1 seals: its open plans are stale
            epoch, results = service.run_batch([request])
            assert epoch == 2
            oracle.check(epoch, request, results[0])
            second = service.plan_cache_stats()
        assert second.invalidations - first.invalidations == 2
        # t=0 plans answer the new epoch; t=1 rebuilds as sealed plans
        assert second.hits - first.hits == 2
        assert second.misses - first.misses == 2
        assert second.resident_plans == 4


    def test_seal_drops_open_reach_plan_and_sealed_reach_plans_hit(self):
        from repro.workloads import Query, QueryKind

        src, dst, t, attrs = make_stream(CHAOS_SEED + 10)
        builder = LiveStoreBuilder(N, T, attributes=attrs)
        feed_all(builder, src, dst, t)
        builder.seal_step()  # epoch 1: t=0 sealed, t=1 open
        reach = QueryKind.TEMPORAL_REACH
        request = QueryRequest([
            Query(reach, 0, (0, 1, 0, 0)),
            Query(reach, 0, (2, 3, 0, 0)),
            Query(reach, 1, (4, 5, 1, 1)),
        ])
        oracle = Oracle(src, dst, t, attrs)
        with LiveQueryService(builder, executor="serial") as service:
            epoch, results = service.run_batch([request])
            assert epoch == 1
            oracle.check(epoch, request, results[0])
            first = service.plan_cache_stats()
            # one shared sealed reach plan (t=0) + one "open" (t=1)
            assert first.misses == 2 and first.hits == 0

            builder.seal_step()  # t=1 seals: its open plan is stale
            epoch, results = service.run_batch([request])
            assert epoch == 2
            oracle.check(epoch, request, results[0])
            second = service.plan_cache_stats()
        assert second.invalidations - first.invalidations == 1
        # the sealed t=0 plan answers the new epoch without a rebuild
        assert second.hits - first.hits == 1
        assert second.misses - first.misses == 1
        assert second.resident_plans == 2


class TestRefreshDegradation:
    def test_snapshot_fault_serves_stale_epoch(self):
        src, dst, t, attrs = make_stream(CHAOS_SEED + 5)
        oracle = Oracle(src, dst, t, attrs)
        full = TemporalEdgeStore(N, T, src, dst, t, attrs)
        requests = make_requests(full, CHAOS_SEED + 5)
        builder = LiveStoreBuilder(N, T, attributes=attrs)
        feed_all(builder, src, dst, t)
        builder.seal_through(1)
        with LiveQueryService(builder, executor="serial") as service:
            assert service.refresh() == 2
            builder.seal_through(3)
            plans = {"live.snapshot": FaultPlan(rate=1.0, max_triggers=1)}
            with fault_injector.arm(plans, seed=CHAOS_SEED):
                # refresh degrades: stale epoch, never an exception
                epoch, results = service.run_batch(requests)
            assert epoch == 2
            for request, result in zip(requests, results):
                oracle.check(2, request, result)
            live = service.live_stats()
            assert live.stale_refreshes == 1
            # injector exhausted: the next refresh catches up
            assert service.run_batch(requests)[0] == 4

    def test_constructor_snapshot_fault_is_loud(self):
        builder = LiveStoreBuilder(N, T)
        plans = {"live.snapshot": FaultPlan(rate=1.0, max_triggers=1)}
        with fault_injector.arm(plans, seed=CHAOS_SEED):
            with pytest.raises(InjectedFault):
                LiveQueryService(builder, executor="serial")


def hammer(service, requests, oracle, samples, errors, stop):
    last_epoch = -1
    try:
        while not stop.is_set():
            for request in requests:
                epoch, results = service.run_batch([request])
                assert epoch >= last_epoch, "epoch went backwards"
                last_epoch = epoch
                samples.append((epoch, request, results[0]))
            if last_epoch >= T:
                break
    except BaseException as exc:  # surfaced on the main thread
        errors.append(exc)


class TestThreadedIngestWhileQuery:
    def run_scenario(self, seed, writer_fn, n_readers=3):
        src, dst, t, attrs = make_stream(seed)
        oracle = Oracle(src, dst, t, attrs)
        full = TemporalEdgeStore(N, T, src, dst, t, attrs)
        requests = make_requests(full, seed)
        builder = LiveStoreBuilder(N, T, attributes=attrs)
        feed_all(builder, src, dst, t)
        errors: list = []
        stop = threading.Event()
        per_reader = [[] for _ in range(n_readers)]
        with LiveQueryService(
            builder, executor="thread", max_workers=2
        ) as service:
            writer = threading.Thread(
                target=writer_fn, args=(builder, errors), daemon=True
            )
            readers = [
                threading.Thread(
                    target=hammer,
                    args=(service, requests, oracle, per_reader[i],
                          errors, stop),
                    daemon=True,
                )
                for i in range(n_readers)
            ]
            writer.start()
            for reader in readers:
                reader.start()
            writer.join(WATCHDOG_SECONDS)
            assert not writer.is_alive(), "writer hung"
            for reader in readers:
                reader.join(WATCHDOG_SECONDS)
                assert not reader.is_alive(), "reader hung"
            stop.set()
            assert not errors, f"worker thread failed: {errors[0]}"
            stats = service.plan_cache_stats()
        # torn-read check: every sample against its epoch's bulk oracle
        checked = 0
        for samples in per_reader:
            assert samples, "reader served nothing"
            for epoch, request, result in samples:
                oracle.check(epoch, request, result)
                checked += 1
        assert checked >= n_readers * len(requests)
        # concurrent lookups may lose a build race (double-counted
        # miss), so the serial identity relaxes to an inequality
        assert stats.resident_plans <= (
            stats.misses - stats.evictions - stats.invalidations
        )
        return builder, oracle

    def test_no_torn_reads_with_concurrent_writer(self):
        def writer(builder, errors):
            try:
                for _ in range(T):
                    builder.seal_step()
            except BaseException as exc:
                errors.append(exc)

        builder, _ = self.run_scenario(CHAOS_SEED + 6, writer)
        assert builder.epoch == T

    def test_chaos_advance_epoch_faults_retried_by_writer(self):
        plans = {
            "live.advance_epoch": FaultPlan(rate=0.5, max_triggers=8)
        }

        def writer(builder, errors):
            try:
                sealed = 0
                while sealed < T:
                    try:
                        builder.seal_step()
                    except InjectedFault:
                        continue  # seal is atomic: retry is safe
                    sealed += 1
            except BaseException as exc:
                errors.append(exc)

        with fault_injector.arm(plans, seed=CHAOS_SEED):
            builder, oracle = self.run_scenario(CHAOS_SEED + 7, writer)
        assert builder.epoch == T
        # the faulted-and-retried stream still equals the bulk build
        assert builder.snapshot()[1] == (
            oracle.engine(T).graph.store
        )
