"""GenerationService fault tolerance: isolation, deadlines, retries."""

import numpy as np
import pytest

from repro import api
from repro.reliability import (
    FaultPlan,
    RetryPolicy,
    ServiceOverloadedError,
    fault_injector,
)


@pytest.fixture(autouse=True)
def _clean_injector():
    fault_injector.reset()
    yield
    fault_injector.reset()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    from repro.datasets import load_dataset

    generator = api.get_generator(
        "ErdosRenyi", seed=0, **api.smoke_config("ErdosRenyi")
    )
    generator.fit(load_dataset("email", scale=0.012, seed=0))
    path = str(tmp_path_factory.mktemp("fault-artifacts") / "gen.npz")
    api.save_artifact(generator, path)
    return path


def _requests(artifact, n=4):
    return [
        api.GenerationRequest(artifact, num_timesteps=3, seed=s)
        for s in range(n)
    ]


class TestPerRequestIsolation:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_missing_artifact_fails_alone(self, artifact, executor):
        """One unreadable artifact yields one error result, not a batch
        failure — on every executor family."""
        requests = _requests(artifact, 2)
        requests.insert(
            1, api.GenerationRequest("/nonexistent/model.npz",
                                     num_timesteps=2)
        )
        with api.GenerationService(executor=executor, max_workers=2) as svc:
            results = svc.run_batch(requests)
        assert [r.request for r in results] == requests
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].error.error_type == "FileNotFoundError"
        reference = api.GenerationService(executor="serial").run_batch(
            [requests[0], requests[2]]
        )
        assert results[0].graph == reference[0].graph
        assert results[2].graph == reference[1].graph

    def test_empty_batch_every_executor(self):
        for executor in ("serial", "thread", "process"):
            with api.GenerationService(executor=executor) as svc:
                assert svc.run_batch([]) == []

    def test_injected_worker_crash_is_structured(self, artifact):
        plans = {"generation.request": FaultPlan(rate=1.0, max_triggers=1)}
        with fault_injector.arm(plans):
            results = api.GenerationService(executor="serial").run_batch(
                _requests(artifact, 3)
            )
        failed = [r for r in results if not r.ok]
        assert len(failed) == 1
        assert failed[0].error.error_type == "InjectedFault"
        assert sum(r.ok for r in results) == 2



class TestFaultCounterScope:
    """``docs/reliability.md``: the process executor re-arms the
    injector per request, so arrival counters and ``max_triggers``
    caps count per request there — and per process run otherwise."""

    @pytest.mark.parametrize("point", ["generation.request", "artifact.load"])
    def test_caps_count_per_request_under_process(self, artifact, point):
        plans = {point: FaultPlan(rate=1.0, max_triggers=1)}
        failed = {}
        for executor in ("serial", "process"):
            with fault_injector.arm(plans):
                with api.GenerationService(
                    executor=executor, max_workers=2
                ) as svc:
                    results = svc.run_batch(_requests(artifact, 3))
            failed[executor] = [i for i, r in enumerate(results) if not r.ok]
        assert failed == {"serial": [0], "process": [0, 1, 2]}

class TestRetries:
    def test_retry_policy_heals_first_attempt_faults(self, artifact):
        plans = {"generation.request": FaultPlan(rate=1.0, max_triggers=2)}
        policy = RetryPolicy(max_attempts=3, base_delay_seconds=0.001,
                             jitter=0.0)
        reference = api.GenerationService(executor="serial").run_batch(
            _requests(artifact, 2)
        )
        with fault_injector.arm(plans):
            with api.GenerationService(
                executor="serial", retry_policy=policy
            ) as svc:
                results = svc.run_batch(_requests(artifact, 2))
        assert all(r.ok for r in results)
        assert results[0].attempts == 3  # two injected faults, then success
        for got, want in zip(results, reference):
            assert got.graph == want.graph

    def test_semantic_errors_are_not_retried(self, artifact):
        bad = api.GenerationRequest(artifact, num_timesteps=2, shards=2)
        policy = RetryPolicy(max_attempts=5, base_delay_seconds=0.0)
        with api.GenerationService(
            executor="serial", retry_policy=policy
        ) as svc:
            results = svc.run_batch([bad])
        assert not results[0].ok
        assert results[0].error.error_type == "ValueError"
        assert results[0].attempts == 1  # ValueError is not transient


class TestDeadlines:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            api.GenerationService(deadline_seconds=0.0)

    def test_thread_deadline_bounds_slow_workers(self, artifact):
        plans = {
            "generation.request": FaultPlan(
                kind="delay", delay_seconds=1.0, rate=1.0, max_triggers=1
            )
        }
        with fault_injector.arm(plans):
            with api.GenerationService(
                executor="thread", max_workers=2, deadline_seconds=0.2
            ) as svc:
                results = svc.run_batch(_requests(artifact, 3))
        expired = [r for r in results if not r.ok]
        assert len(expired) == 1
        assert expired[0].error.error_type == "DeadlineExceededError"
        assert sum(r.ok for r in results) == 2

    def test_serial_deadline_checked_between_retries(self, artifact):
        plans = {"generation.request": FaultPlan(rate=1.0)}
        policy = RetryPolicy(max_attempts=10, base_delay_seconds=0.2,
                             jitter=0.0)
        with fault_injector.arm(plans):
            with api.GenerationService(
                executor="serial", retry_policy=policy,
                deadline_seconds=0.05,
            ) as svc:
                results = svc.run_batch(_requests(artifact, 1))
        assert not results[0].ok
        assert results[0].error.error_type == "DeadlineExceededError"


class TestBackpressure:
    def test_oversized_batch_is_shed(self, artifact):
        requests = _requests(artifact, 4)
        with api.GenerationService(
            executor="serial", max_pending=2
        ) as svc:
            with pytest.raises(ServiceOverloadedError) as err:
                svc.run_batch(requests)
            assert err.value.capacity == 2
            assert err.value.retry_after_seconds > 0
            results = svc.run_batch(requests[:2])  # fits: runs normally
        assert all(r.ok for r in results)
        assert svc.admission_stats()["shed"] == 4

    def test_capacity_restored_after_batch(self, artifact):
        with api.GenerationService(
            executor="serial", max_pending=2
        ) as svc:
            for _ in range(3):  # sequential batches at capacity
                assert all(
                    r.ok for r in svc.run_batch(_requests(artifact, 2))
                )
            assert svc.admission_stats()["pending"] == 0
