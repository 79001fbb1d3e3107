"""QueryService: deterministic concurrent serving over one shared engine."""

import numpy as np
import pytest

from repro.graph import DynamicAttributedGraph
from repro.graph.store import TemporalEdgeStore, track_dense_materializations
from repro.workloads import (
    GraphQueryEngine,
    QueryRequest,
    QueryService,
    WorkloadConfig,
    WorkloadGenerator,
    execute_workload,
    serving_mix,
)
from repro.workloads.generator import _run_query


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(2)
    n, m, t_len = 50, 500, 6
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
    config = WorkloadConfig(num_queries=240, mix=serving_mix(), seed=9)
    return WorkloadGenerator(graph, config).generate()


def reference_cards(graph, queries):
    engine = GraphQueryEngine(graph)
    return np.array([_run_query(engine, q) for q in queries])


class TestRequests:
    def test_empty_request_rejected(self):
        with pytest.raises(ValueError, match="at least one query"):
            QueryRequest([])

    def test_request_is_immutable_tuple(self, queries):
        req = QueryRequest(queries[:5])
        assert isinstance(req.queries, tuple)
        assert len(req) == 5


class TestService:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_results_in_request_order_and_bit_identical(
        self, graph, queries, executor
    ):
        requests = [
            QueryRequest(queries[i:i + 50])
            for i in range(0, len(queries), 50)
        ]
        with QueryService(graph, executor=executor, max_workers=3) as svc:
            results = svc.run_batch(requests)
        assert [r.request for r in results] == requests
        flat = np.concatenate([r.cardinalities for r in results])
        assert np.array_equal(flat, reference_cards(graph, queries))
        for r in results:
            assert r.seconds >= 0
            assert set(r.seconds_by_kind) == {
                q.kind.value for q in r.request.queries
            }

    def test_batch_composition_is_a_deployment_knob(self, graph, queries):
        """Any split of the same queries yields the same concatenation."""
        ref = reference_cards(graph, queries)
        for batch_size in (1, 7, 100, len(queries)):
            requests = [
                QueryRequest(queries[i:i + batch_size])
                for i in range(0, len(queries), batch_size)
            ]
            with QueryService(graph, executor="thread", max_workers=2) as svc:
                flat = np.concatenate(
                    [r.cardinalities for r in svc.run_batch(requests)]
                )
            assert np.array_equal(flat, ref)

    def test_empty_batch(self, graph):
        assert QueryService(graph, executor="serial").run_batch([]) == []

    def test_unknown_executor_rejected(self, graph):
        with pytest.raises(ValueError, match="executor"):
            QueryService(graph, executor="gpu")

    def test_process_executor_rejected(self, graph):
        """Process pools are a topology, not a pool mode (shared store)."""
        with pytest.raises(ValueError, match="process"):
            QueryService(graph, executor="process")

    def test_accepts_prebuilt_engine_and_shares_cache(self, graph, queries):
        engine = GraphQueryEngine(graph)
        with QueryService(engine, executor="serial") as svc:
            assert svc.engine is engine
            svc.run_batch([QueryRequest(queries[:20])])
        assert engine.plans.stats().misses > 0

    def test_plan_cache_shared_across_requests(self, graph, queries):
        with QueryService(graph, executor="serial") as svc:
            svc.run_batch([QueryRequest(queries[:100])])
            first = svc.plan_cache_stats()
            svc.run_batch([QueryRequest(queries[:100])])
            second = svc.plan_cache_stats()
        assert second.hits > first.hits
        assert second.misses == first.misses  # warm: no new plans

    def test_no_dense_materializations_on_serving_path(self, graph, queries):
        with track_dense_materializations() as materialized:
            with QueryService(graph, executor="thread", max_workers=2) as svc:
                svc.run_batch([
                    QueryRequest(queries[i:i + 40])
                    for i in range(0, len(queries), 40)
                ])
        assert materialized() == 0

    def test_tiny_cache_budget_still_correct(self, graph, queries):
        with QueryService(
            graph, executor="serial", cache_memory_budget_bytes=1
        ) as svc:
            results = svc.run_batch([QueryRequest(queries)])
        assert np.array_equal(
            results[0].cardinalities, reference_cards(graph, queries)
        )
        assert svc.plan_cache_stats().evictions > 0


class TestWorkloadReplay:
    def test_run_workload_matches_per_query_profile(self, graph):
        config = WorkloadConfig(num_queries=200, mix=serving_mix(), seed=4)
        with QueryService(graph, executor="thread", max_workers=2) as svc:
            report, results = svc.run_workload(config, batch_size=64)
        queries = WorkloadGenerator(graph, config).generate()
        baseline = execute_workload(GraphQueryEngine(graph), queries)
        assert report.total_queries == baseline.total_queries
        assert report.count_by_kind == baseline.count_by_kind
        assert report.mean_result_size == baseline.mean_result_size
        assert report.throughput() > 0
        assert sum(len(r.request) for r in results) == len(queries)

    def test_run_workload_default_oltp_mix(self, graph):
        """The full default mix (traversals included) replays through."""
        config = WorkloadConfig(num_queries=80, seed=1)
        with QueryService(graph, executor="serial") as svc:
            report, _ = svc.run_workload(config, batch_size=32)
        assert report.total_queries == 80

    def test_bad_batch_size_rejected(self, graph):
        with QueryService(graph, executor="serial") as svc:
            with pytest.raises(ValueError, match="batch_size"):
                svc.run_workload(WorkloadConfig(num_queries=10), batch_size=0)


class TestApiReexport:
    def test_api_surface(self):
        from repro import api

        assert api.QueryService is QueryService
        assert api.QueryRequest is QueryRequest
        assert "QueryService" in api.__all__
