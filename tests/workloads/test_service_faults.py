"""QueryService fault tolerance: degradation, deadlines, backpressure."""

import numpy as np
import pytest

from repro.graph import DynamicAttributedGraph
from repro.graph.store import TemporalEdgeStore
from repro.reliability import (
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    ServiceOverloadedError,
    fault_injector,
)
from repro.workloads import (
    GraphQueryEngine,
    QueryRequest,
    QueryService,
    WorkloadConfig,
    WorkloadGenerator,
    run_queries_batched,
    run_queries_resilient,
    serving_mix,
)


@pytest.fixture(autouse=True)
def _clean_injector():
    fault_injector.reset()
    yield
    fault_injector.reset()


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(6)
    n, m, t_len = 40, 400, 5
    store = TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, 2)),
    )
    return DynamicAttributedGraph.from_store(store)


@pytest.fixture(scope="module")
def queries(graph):
    config = WorkloadConfig(num_queries=120, mix=serving_mix(), seed=4)
    return WorkloadGenerator(graph, config).generate()


@pytest.fixture(scope="module")
def requests(queries):
    return [
        QueryRequest(queries[i:i + 30]) for i in range(0, len(queries), 30)
    ]


@pytest.fixture(scope="module")
def reference(graph, requests):
    with QueryService(graph, executor="serial") as svc:
        results = svc.run_batch(requests)
    assert all(r.ok for r in results)
    return [r.cardinalities.copy() for r in results]


class TestKernelDegradation:
    def test_strict_path_propagates_kernel_faults(self, graph, queries):
        engine = GraphQueryEngine(graph)
        with fault_injector.arm({"query.batch_kernel": FaultPlan()}):
            with pytest.raises(InjectedFault):
                run_queries_batched(engine, queries)

    def test_resilient_path_degrades_bit_identically(self, graph, queries):
        engine = GraphQueryEngine(graph)
        clean_cards, _ = run_queries_batched(engine, queries)
        with fault_injector.arm({"query.batch_kernel": FaultPlan()}):
            cards, _, degraded = run_queries_resilient(engine, queries)
        np.testing.assert_array_equal(cards, clean_cards)
        assert degraded  # every batched class fell back
        clean_again, _, none_degraded = run_queries_resilient(engine, queries)
        np.testing.assert_array_equal(clean_again, clean_cards)
        assert none_degraded == frozenset()

    def test_service_reports_degraded_kinds(self, graph, requests, reference):
        with fault_injector.arm({"query.batch_kernel": FaultPlan()}):
            with QueryService(graph, executor="serial") as svc:
                results = svc.run_batch(requests)
        assert all(r.ok for r in results)
        assert all(r.degraded_kinds for r in results)
        for result, expected in zip(results, reference):
            np.testing.assert_array_equal(result.cardinalities, expected)


class TestTraversalKernelDegradation:
    """The frontier-vectorized traversal kernels degrade like every
    other batched class: a ``query.batch_kernel`` fault sends
    TWO_HOP / TEMPORAL_REACH back to their per-query reference twins
    with bit-identical results, and the degradation is reported."""

    TRAVERSAL_KINDS = {"two_hop", "temporal_reach"}

    @pytest.fixture(scope="class")
    def traversal_workload(self, graph):
        from repro.workloads import QueryKind

        config = WorkloadConfig(
            num_queries=90,
            mix={QueryKind.TWO_HOP: 0.5, QueryKind.TEMPORAL_REACH: 0.5},
            seed=9,
        )
        queries = WorkloadGenerator(graph, config).generate()
        requests = [
            QueryRequest(queries[i:i + 30]) for i in range(0, 90, 30)
        ]
        with QueryService(graph, executor="serial") as svc:
            clean = svc.run_batch(requests)
        assert all(r.ok for r in clean)
        assert all(r.degraded_kinds == frozenset() for r in clean)
        return requests, [r.cardinalities.copy() for r in clean]

    @pytest.mark.parametrize("executor,workers", [("serial", 1), ("thread", 3)])
    def test_traversal_kinds_degrade_bit_identically(
        self, graph, traversal_workload, executor, workers
    ):
        requests, reference = traversal_workload
        with fault_injector.arm({"query.batch_kernel": FaultPlan()}):
            with QueryService(
                graph, executor=executor, max_workers=workers
            ) as svc:
                results = svc.run_batch(requests)
        assert all(r.ok for r in results)
        for result in results:
            assert self.TRAVERSAL_KINDS <= set(result.degraded_kinds)
        for result, expected in zip(results, reference):
            np.testing.assert_array_equal(result.cardinalities, expected)

    def test_resilient_loop_degrades_traversals(self, graph, traversal_workload):
        requests, reference = traversal_workload
        engine = GraphQueryEngine(graph)
        queries = [q for r in requests for q in r.queries]
        expected = np.concatenate(reference)
        with fault_injector.arm({"query.batch_kernel": FaultPlan()}):
            cards, _, degraded = run_queries_resilient(engine, queries)
        assert self.TRAVERSAL_KINDS <= set(degraded)
        np.testing.assert_array_equal(cards, expected)


class TestAnalyticsKernelDegradation:
    """The plan-cached analytics kernels degrade like every other
    batched class: a ``query.batch_kernel`` fault sends
    TRIANGLE_COUNT / DEGREE_TOPK back to per-query dispatch with
    bit-identical results, and the degradation is reported."""

    ANALYTICS_KINDS = {"triangle_count", "degree_topk"}

    @staticmethod
    def make_requests(graph, mix, seed):
        config = WorkloadConfig(num_queries=90, mix=mix, seed=seed)
        queries = WorkloadGenerator(graph, config).generate()
        requests = [
            QueryRequest(queries[i:i + 30]) for i in range(0, 90, 30)
        ]
        with QueryService(graph, executor="serial") as svc:
            clean = svc.run_batch(requests)
        assert all(r.ok for r in clean)
        assert all(r.degraded_kinds == frozenset() for r in clean)
        return requests, [r.cardinalities.copy() for r in clean]

    @pytest.fixture(scope="class")
    def analytics_workload(self, graph):
        from repro.workloads import QueryKind

        mix = {QueryKind.TRIANGLE_COUNT: 0.5, QueryKind.DEGREE_TOPK: 0.5}
        return self.make_requests(graph, mix, seed=10)

    @pytest.mark.parametrize("kind", sorted(ANALYTICS_KINDS))
    @pytest.mark.parametrize("executor,workers", [("serial", 1), ("thread", 3)])
    def test_analytics_kind_degrades_bit_identically(
        self, graph, executor, workers, kind
    ):
        from repro.workloads import QueryKind

        requests, reference = self.make_requests(
            graph, {QueryKind(kind): 1.0}, seed=11
        )
        with fault_injector.arm({"query.batch_kernel": FaultPlan()}):
            with QueryService(
                graph, executor=executor, max_workers=workers
            ) as svc:
                results = svc.run_batch(requests)
        assert all(r.ok for r in results)
        for result in results:
            assert result.degraded_kinds == frozenset({kind})
        for result, expected in zip(results, reference):
            np.testing.assert_array_equal(result.cardinalities, expected)

    def test_resilient_loop_degrades_analytics(self, graph, analytics_workload):
        requests, reference = analytics_workload
        engine = GraphQueryEngine(graph)
        queries = [q for r in requests for q in r.queries]
        expected = np.concatenate(reference)
        with fault_injector.arm({"query.batch_kernel": FaultPlan()}):
            cards, _, degraded = run_queries_resilient(engine, queries)
        assert set(degraded) == self.ANALYTICS_KINDS
        np.testing.assert_array_equal(cards, expected)

    def test_cache_fault_bypasses_analytics_plans(
        self, graph, analytics_workload
    ):
        requests, reference = analytics_workload
        with fault_injector.arm({"cache.plan": FaultPlan()}):
            with QueryService(graph, executor="serial") as svc:
                results = svc.run_batch(requests)
                stats = svc.plan_cache_stats()
        assert all(r.ok for r in results)
        assert stats.bypasses > 0
        assert stats.hits == stats.misses == stats.resident_plans == 0
        for result, expected in zip(results, reference):
            np.testing.assert_array_equal(result.cardinalities, expected)


class TestCacheDegradation:
    def test_cache_fault_bypasses_without_changing_results(
        self, graph, requests, reference
    ):
        with fault_injector.arm({"cache.plan": FaultPlan(rate=0.5)}, seed=1):
            with QueryService(graph, executor="serial") as svc:
                results = svc.run_batch(requests)
                stats = svc.plan_cache_stats()
        assert all(r.ok for r in results)
        assert stats.bypasses > 0
        for result, expected in zip(results, reference):
            np.testing.assert_array_equal(result.cardinalities, expected)

    def test_eviction_racing_concurrent_queries(self, graph, requests,
                                                reference):
        """A plan cache too small to hold anything (evicting constantly
        under a concurrent request stream) never changes results."""
        with QueryService(
            graph,
            executor="thread",
            max_workers=4,
            cache_memory_budget_bytes=1,
        ) as svc:
            for _ in range(3):  # repeated batches: evict/rebuild churn
                results = svc.run_batch(requests)
                assert all(r.ok for r in results)
                for result, expected in zip(results, reference):
                    np.testing.assert_array_equal(
                        result.cardinalities, expected
                    )
            assert svc.plan_cache_stats().evictions > 0


class TestRequestIsolation:
    def test_injected_fault_is_structured_per_request(
        self, graph, requests, reference
    ):
        plans = {"query.request": FaultPlan(rate=1.0, max_triggers=1)}
        with fault_injector.arm(plans):
            with QueryService(graph, executor="serial") as svc:
                results = svc.run_batch(requests)
        failed = [r for r in results if not r.ok]
        assert len(failed) == 1
        assert failed[0].error.error_type == "InjectedFault"
        assert failed[0].cardinalities is None
        for result, expected in zip(results, reference):
            if result.ok:
                np.testing.assert_array_equal(result.cardinalities, expected)

    def test_retry_policy_heals_and_counts_attempts(
        self, graph, requests, reference
    ):
        plans = {"query.request": FaultPlan(rate=1.0, max_triggers=1)}
        policy = RetryPolicy(max_attempts=2, base_delay_seconds=0.001,
                             jitter=0.0)
        with fault_injector.arm(plans):
            with QueryService(
                graph, executor="serial", retry_policy=policy
            ) as svc:
                results = svc.run_batch(requests)
        assert all(r.ok for r in results)
        assert results[0].attempts == 2
        for result, expected in zip(results, reference):
            np.testing.assert_array_equal(result.cardinalities, expected)


class TestDeadlinesAndBackpressure:
    def test_deadline_must_be_positive(self, graph):
        with pytest.raises(ValueError, match="deadline_seconds"):
            QueryService(graph, deadline_seconds=-1.0)

    def test_thread_deadline_answers_instead_of_hanging(
        self, graph, requests
    ):
        plans = {
            "query.request": FaultPlan(
                kind="delay", delay_seconds=1.0, rate=1.0, max_triggers=1
            )
        }
        with fault_injector.arm(plans):
            with QueryService(
                graph, executor="thread", max_workers=2,
                deadline_seconds=0.2,
            ) as svc:
                results = svc.run_batch(requests)
        expired = [r for r in results if not r.ok]
        assert len(expired) == 1
        assert expired[0].error.error_type == "DeadlineExceededError"

    def test_overflow_is_shed_not_queued(self, graph, requests):
        with QueryService(graph, executor="serial", max_pending=1) as svc:
            with pytest.raises(ServiceOverloadedError):
                svc.run_batch(requests)
            assert svc.admission_stats()["shed"] == len(requests)
            assert all(r.ok for r in svc.run_batch(requests[:1]))

    def test_run_workload_reports_only_completed(self, graph):
        """Failed requests stay visible on results; the report counts
        completed queries only."""
        config = WorkloadConfig(num_queries=60, mix=serving_mix(), seed=2)
        plans = {"query.request": FaultPlan(rate=1.0, max_triggers=1)}
        with fault_injector.arm(plans):
            with QueryService(graph, executor="serial") as svc:
                report, results = svc.run_workload(config, batch_size=20)
        failed = [r for r in results if not r.ok]
        assert len(failed) == 1
        assert report.total_queries == 60 - len(failed[0].request)
