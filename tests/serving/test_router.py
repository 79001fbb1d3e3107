"""Request router: parity with the single-process service, stats,
reliability knobs across the process boundary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.reliability import (
    FaultPlan,
    RetryPolicy,
    ServiceOverloadedError,
    fault_injector,
)
from repro.serving import ProcessQueryService, encode_queries
from repro.workloads import (
    PlanCacheStats,
    QueryRequest,
    QueryService,
    WorkloadConfig,
    serving_mix,
)


def _requests(queries, size=50):
    return [
        QueryRequest(queries[i:i + size])
        for i in range(0, len(queries), size)
    ]


@pytest.fixture
def baseline(serving_graph, serving_queries):
    with QueryService(serving_graph, executor="serial") as service:
        return service.run_batch(_requests(serving_queries))


@pytest.mark.parametrize("num_workers", [1, 2, 3])
def test_bit_identical_to_single_process(
    serving_graph, serving_queries, baseline, num_workers
):
    with ProcessQueryService(
        serving_graph, num_workers=num_workers
    ) as tier:
        results = tier.run_batch(_requests(serving_queries))
    assert all(r.ok for r in results)
    for got, want in zip(results, baseline):
        np.testing.assert_array_equal(got.cardinalities, want.cardinalities)


def test_columnar_requests_are_first_class(
    serving_graph, serving_queries, baseline
):
    columnar = [
        encode_queries(serving_queries[i:i + 50])
        for i in range(0, len(serving_queries), 50)
    ]
    with ProcessQueryService(serving_graph, num_workers=2) as tier:
        results = tier.run_batch(columnar)
    assert all(r.ok for r in results)
    for got, want in zip(results, baseline):
        np.testing.assert_array_equal(got.cardinalities, want.cardinalities)


def test_uneven_batch_splits(serving_graph, serving_queries, baseline):
    flat_ref = np.concatenate([r.cardinalities for r in baseline])
    with ProcessQueryService(serving_graph, num_workers=2) as tier:
        results = tier.run_batch(_requests(serving_queries, size=37))
    flat = np.concatenate([r.cardinalities for r in results])
    np.testing.assert_array_equal(flat, flat_ref)


def test_run_workload_report_matches_single_process(serving_graph):
    config = WorkloadConfig(num_queries=300, mix=serving_mix(), seed=3)
    with QueryService(serving_graph, executor="serial") as single:
        ref_report, _ = single.run_workload(config, batch_size=64)
    with ProcessQueryService(serving_graph, num_workers=2) as tier:
        report, results = tier.run_workload(config, batch_size=64)
    assert all(r.ok for r in results)
    assert report.total_queries == ref_report.total_queries
    assert report.count_by_kind == ref_report.count_by_kind
    assert report.mean_result_size == ref_report.mean_result_size


def test_stats_surfaces(serving_graph, serving_queries):
    with ProcessQueryService(serving_graph, num_workers=2) as tier:
        tier.run_batch(_requests(serving_queries))
        tier.run_batch(_requests(serving_queries))  # warm second pass
        per_worker = tier.worker_stats()
        aggregate = tier.plan_cache_stats()
        shm = tier.shared_memory_stats()
    assert len(per_worker) == 2
    assert {w["worker_id"] for w in per_worker} == {0, 1}
    for w in per_worker:
        assert w["resident_copy_bytes"] == 0
        assert w["respawns"] == 0
        assert w["plan_cache"]["hits"] > 0
    assert isinstance(aggregate, PlanCacheStats)
    assert aggregate.hits == sum(
        w["plan_cache"]["hits"] for w in per_worker
    )
    assert aggregate.bypasses == sum(
        w["plan_cache"]["bypasses"] for w in per_worker
    )
    assert aggregate.hits + aggregate.misses > 0
    assert shm["num_workers"] == 2
    assert shm["worker_resident_bytes"] == 0
    assert shm["segment_bytes"] > 0


def test_cache_bypass_counters_aggregate(serving_graph, serving_queries):
    # a cache.plan fault makes every lookup degrade around the cache;
    # the per-worker bypass counters must surface in the aggregate
    with fault_injector.arm(
        {"cache.plan": FaultPlan(kind="error", rate=1.0)}, seed=1
    ):
        with ProcessQueryService(serving_graph, num_workers=2) as tier:
            results = tier.run_batch(_requests(serving_queries))
            stats = tier.plan_cache_stats()
    assert all(r.ok for r in results)
    assert stats.bypasses > 0
    assert stats.hits == 0


def test_backpressure_sheds_oversized_batches(
    serving_graph, serving_queries
):
    requests = _requests(serving_queries)
    assert len(requests) > 2
    with ProcessQueryService(
        serving_graph, num_workers=1, max_pending=2
    ) as tier:
        with pytest.raises(ServiceOverloadedError):
            tier.run_batch(requests)
        # the shed batch must not poison admission accounting
        assert all(r.ok for r in tier.run_batch(requests[:2]))


def test_deadline_expiry_is_a_structured_failure(
    serving_graph, serving_queries
):
    with fault_injector.arm(
        {
            "serving.worker": FaultPlan(
                kind="delay", rate=1.0, delay_seconds=0.3, max_triggers=2
            )
        },
        seed=0,
    ):
        with ProcessQueryService(
            serving_graph, num_workers=2, deadline_seconds=0.1
        ) as tier:
            results = tier.run_batch(_requests(serving_queries)[:4])
    expired = [r for r in results if not r.ok]
    assert expired
    assert all(
        r.error.error_type == "DeadlineExceededError" for r in expired
    )


def test_in_worker_faults_heal_via_worker_local_retry(
    serving_graph, serving_queries, baseline
):
    with fault_injector.arm(
        {"serving.worker": FaultPlan(kind="error", rate=0.5)}, seed=11
    ):
        with ProcessQueryService(
            serving_graph,
            num_workers=2,
            retry_policy=RetryPolicy(
                max_attempts=10, base_delay_seconds=0.0
            ),
        ) as tier:
            results = tier.run_batch(_requests(serving_queries))
    assert all(r.ok for r in results), [
        str(r.error) for r in results if not r.ok
    ]
    assert any(r.attempts > 1 for r in results)
    for got, want in zip(results, baseline):
        np.testing.assert_array_equal(got.cardinalities, want.cardinalities)


def test_in_worker_faults_isolate_without_retry(
    serving_graph, serving_queries, baseline
):
    with fault_injector.arm(
        {"serving.worker": FaultPlan(kind="error", rate=0.5)}, seed=11
    ):
        with ProcessQueryService(serving_graph, num_workers=2) as tier:
            results = tier.run_batch(_requests(serving_queries))
    failed = [r for r in results if not r.ok]
    assert failed and len(failed) < len(results)
    assert all(r.error.error_type == "InjectedFault" for r in failed)
    for got, want in zip(results, baseline):
        if got.ok:
            np.testing.assert_array_equal(
                got.cardinalities, want.cardinalities
            )



@pytest.mark.parametrize("num_workers", [1, 2])
def test_fault_counters_count_per_worker_process(
    serving_graph, serving_queries, num_workers
):
    """``docs/reliability.md``: each worker arms once at spawn, so
    arrival counters and ``max_triggers`` caps count per worker."""
    requests = _requests(serving_queries)
    with fault_injector.arm(
        {"serving.worker": FaultPlan(kind="error", rate=1.0, max_triggers=1)}
    ):
        with ProcessQueryService(
            serving_graph, num_workers=num_workers
        ) as tier:
            results = tier.run_batch(requests)
            points = [w["fault_points"]["serving.worker"]
                      for w in tier.worker_stats()]
    # one capped trigger per worker: its first request fails
    assert sum(not r.ok for r in results) == num_workers
    assert [p["triggers"] for p in points] == [1] * num_workers
    assert sum(p["arrivals"] for p in points) == len(requests)
    assert all(p["arrivals"] > 0 for p in points)

def test_worker_death_heals_with_respawn_and_resend(
    serving_graph, serving_queries, baseline
):
    with fault_injector.arm(
        {"serving.worker_exit": FaultPlan(kind="error", rate=0.25)},
        seed=3,
    ):
        with ProcessQueryService(
            serving_graph,
            num_workers=2,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_seconds=0.0),
        ) as tier:
            results = tier.run_batch(_requests(serving_queries))
            respawns = sum(w["respawns"] for w in tier.worker_stats())
    assert respawns > 0, "chaos plan provoked no crash"
    assert all(r.ok for r in results), [
        str(r.error) for r in results if not r.ok
    ]
    for got, want in zip(results, baseline):
        np.testing.assert_array_equal(got.cardinalities, want.cardinalities)


def test_worker_death_isolates_without_retry(
    serving_graph, serving_queries
):
    with fault_injector.arm(
        {
            "serving.worker_exit": FaultPlan(
                kind="error", rate=0.25, max_triggers=1
            )
        },
        seed=3,
    ):
        with ProcessQueryService(serving_graph, num_workers=2) as tier:
            results = tier.run_batch(_requests(serving_queries))
    failed = [r for r in results if not r.ok]
    assert failed, "chaos plan provoked no crash"
    assert all(r.error.error_type == "WorkerCrashError" for r in failed)


def test_closed_service_rejects_work(serving_graph, serving_queries):
    tier = ProcessQueryService(serving_graph, num_workers=1)
    tier.close()
    tier.close()  # idempotent
    with pytest.raises(ValueError):
        tier.run_batch(_requests(serving_queries)[:1])


def test_empty_batch_is_a_no_op(serving_graph):
    with ProcessQueryService(serving_graph, num_workers=1) as tier:
        assert tier.run_batch([]) == []
