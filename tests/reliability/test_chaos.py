"""Chaos suite: the reliability layer's three load-bearing invariants.

1. **Bit-exact completion** — every request that *completes* under
   injected faults returns exactly what the fault-free run returns,
   in request order, for every executor.
2. **Never hang** — overload and expiry surface as typed errors or
   structured results; every scenario finishes under a watchdog.
3. **Resumable ingestion** — an ingestion killed mid-stream and
   resumed from its checkpoint builds the same store as an
   uninterrupted run.

The fault schedule is a pure function of ``REPRO_CHAOS_SEED``
(default 0), so a CI failure reproduces locally with the same seed.
"""

import os
import threading

import numpy as np
import pytest

from repro import api
from repro.graph import DynamicAttributedGraph
from repro.graph.store import TemporalEdgeStore
from repro.graph.streams import StreamingStoreBuilder, ingest_stream
from repro.reliability import (
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    ServiceOverloadedError,
    fault_injector,
)
from repro.workloads import (
    QueryRequest,
    QueryService,
    WorkloadConfig,
    WorkloadGenerator,
    serving_mix,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
WATCHDOG_SECONDS = 60.0


def within_watchdog(fn):
    """Run ``fn`` on a thread; fail the test if it outlives the watchdog."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as exc:  # propagated to the test thread
            out["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(WATCHDOG_SECONDS)
    assert not worker.is_alive(), (
        f"chaos scenario still running after {WATCHDOG_SECONDS}s — "
        "the never-hang invariant is broken"
    )
    if "error" in out:
        raise out["error"]
    return out["result"]


# ---------------------------------------------------------------------------
# query serving
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(11)
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
def query_requests(graph):
    config = WorkloadConfig(num_queries=160, mix=serving_mix(), seed=3)
    queries = WorkloadGenerator(graph, config).generate()
    return [
        QueryRequest(queries[i:i + 20]) for i in range(0, len(queries), 20)
    ]


@pytest.fixture(scope="module")
def query_reference(graph, query_requests):
    """Fault-free per-request cardinalities (the bit-exactness oracle)."""
    with QueryService(graph, executor="serial") as svc:
        results = svc.run_batch(query_requests)
    assert all(r.ok for r in results)
    return [r.cardinalities.copy() for r in results]


FULL_STACK_PLANS = {
    "query.request": FaultPlan(kind="error", rate=0.25),
    "query.batch_kernel": FaultPlan(kind="error", rate=0.5),
    "cache.plan": FaultPlan(kind="error", rate=0.5),
}


class TestQueryChaos:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_completed_results_bit_identical(
        self, graph, query_requests, query_reference, executor
    ):
        def scenario():
            with QueryService(graph, executor=executor) as svc:
                with fault_injector.arm(FULL_STACK_PLANS, seed=CHAOS_SEED):
                    return svc.run_batch(query_requests)

        results = within_watchdog(scenario)
        assert [r.request for r in results] == query_requests
        completed = 0
        for result, expected in zip(results, query_reference):
            if result.ok:
                completed += 1
                np.testing.assert_array_equal(result.cardinalities, expected)
            else:
                assert result.cardinalities is None
                assert result.error.error_type == "InjectedFault"
        assert 0 < completed < len(results)  # the chaos actually bit

    def test_fault_pattern_identical_across_executors(
        self, graph, query_requests
    ):
        """Keyed injection makes serial and thread fail the same requests."""
        patterns = []
        for executor in ("serial", "thread"):
            with QueryService(graph, executor=executor) as svc:
                plans = {"query.request": FaultPlan(rate=0.4)}
                with fault_injector.arm(plans, seed=CHAOS_SEED):
                    results = svc.run_batch(query_requests)
            patterns.append([r.ok for r in results])
        assert patterns[0] == patterns[1]

    def test_retries_heal_transient_faults(
        self, graph, query_requests, query_reference
    ):
        """First two attempts fault; the retry policy completes them all."""
        policy = RetryPolicy(
            max_attempts=3, base_delay_seconds=0.001, jitter=0.0
        )
        plans = {"query.request": FaultPlan(rate=1.0, max_triggers=2)}

        def scenario():
            with QueryService(
                graph, executor="serial", retry_policy=policy
            ) as svc:
                with fault_injector.arm(plans, seed=CHAOS_SEED):
                    return svc.run_batch(query_requests)

        results = within_watchdog(scenario)
        assert all(r.ok for r in results)
        assert any(r.attempts > 1 for r in results)
        for result, expected in zip(results, query_reference):
            np.testing.assert_array_equal(result.cardinalities, expected)

    def test_slow_workers_expire_without_hanging(
        self, graph, query_requests, query_reference
    ):
        plans = {
            "query.request": FaultPlan(
                kind="delay", delay_seconds=0.5, rate=0.3
            )
        }

        def scenario():
            with QueryService(
                graph, executor="thread", deadline_seconds=0.15
            ) as svc:
                with fault_injector.arm(plans, seed=CHAOS_SEED):
                    return svc.run_batch(query_requests)

        results = within_watchdog(scenario)
        expired = [r for r in results if not r.ok]
        assert expired, "no deadline expiries — the delay plan never bit"
        for r in expired:
            assert r.error.error_type == "DeadlineExceededError"
        for result, expected in zip(results, query_reference):
            if result.ok:
                np.testing.assert_array_equal(result.cardinalities, expected)

    def test_overload_sheds_structurally_and_recovers(
        self, graph, query_requests, query_reference
    ):
        def scenario():
            with QueryService(
                graph, executor="serial", max_pending=2
            ) as svc:
                with pytest.raises(ServiceOverloadedError) as err:
                    svc.run_batch(query_requests)  # 8 > 2: shed, not queued
                assert err.value.retry_after_seconds > 0
                assert svc.admission_stats()["shed"] == len(query_requests)
                return svc.run_batch(query_requests[:2])  # capacity honored

        results = within_watchdog(scenario)
        assert all(r.ok for r in results)
        for result, expected in zip(results, query_reference[:2]):
            np.testing.assert_array_equal(result.cardinalities, expected)


# ---------------------------------------------------------------------------
# generation serving
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    from repro.datasets import load_dataset

    fitted = api.get_generator(
        "ErdosRenyi", seed=0, **api.smoke_config("ErdosRenyi")
    )
    fitted.fit(load_dataset("email", scale=0.012, seed=0))
    path = str(tmp_path_factory.mktemp("chaos-artifacts") / "gen.npz")
    api.save_artifact(fitted, path)
    return path


@pytest.fixture(scope="module")
def generation_requests(artifact):
    return [
        api.GenerationRequest(artifact, num_timesteps=3, seed=s)
        for s in range(6)
    ]


@pytest.fixture(scope="module")
def generation_reference(generation_requests):
    results = api.GenerationService(executor="serial").run_batch(
        generation_requests
    )
    assert all(r.ok for r in results)
    return [r.graph for r in results]


class TestGenerationChaos:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_completed_results_bit_identical(
        self, generation_requests, generation_reference, executor
    ):
        plans = {"generation.request": FaultPlan(rate=0.4)}

        def run(executor):
            def scenario():
                with api.GenerationService(executor=executor) as svc:
                    with fault_injector.arm(plans, seed=CHAOS_SEED):
                        return svc.run_batch(generation_requests)

            return within_watchdog(scenario)

        def failed(results):
            return [i for i, r in enumerate(results) if not r.ok]

        results = run(executor)
        # the fault pattern is a function of the seed, not the executor
        assert failed(results) == failed(run("serial"))
        completed = 0
        for result, expected in zip(results, generation_reference):
            if result.ok:
                completed += 1
                assert result.graph == expected
            else:
                assert result.graph is None
                assert result.error.error_type == "InjectedFault"
        assert 0 < completed < len(results)

    def test_artifact_load_faults_stay_per_request(
        self, generation_requests, generation_reference
    ):
        plans = {"artifact.load": FaultPlan(rate=0.5)}
        with api.GenerationService(executor="serial") as svc:
            with fault_injector.arm(plans, seed=CHAOS_SEED):
                results = svc.run_batch(generation_requests)
        assert any(not r.ok for r in results)
        for result, expected in zip(results, generation_reference):
            if result.ok:
                assert result.graph == expected


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------
class TestArtifactChaos:
    def test_corrupted_state_is_detected(self, artifact):
        plans = {"artifact.state": FaultPlan(kind="corrupt")}
        with fault_injector.arm(plans, seed=CHAOS_SEED):
            with pytest.raises(api.ArtifactError, match="checksum mismatch"):
                api.load_artifact(artifact)
        api.load_artifact(artifact)  # pristine once disarmed


# ---------------------------------------------------------------------------
# streaming ingestion
# ---------------------------------------------------------------------------
class TestIngestionChaos:
    N, T, M = 40, 6, 5000

    def _events(self):
        rng = np.random.default_rng(CHAOS_SEED + 17)
        return (
            rng.integers(0, self.N, size=self.M),
            rng.integers(0, self.N, size=self.M),
            rng.integers(0, self.T, size=self.M),
        )

    def _reference(self, events):
        return ingest_stream(events, self.N, self.T, chunk_events=256)

    def test_resumed_build_equals_uninterrupted(self, tmp_path):
        events = self._events()
        reference = self._reference(events)
        ckpt = str(tmp_path / "ingest.ckpt.npz")

        # a partial run that checkpointed, then "crashed"
        partial = StreamingStoreBuilder(self.N, self.T, chunk_events=256)
        partial.extend(events[0][:2100], events[1][:2100], events[2][:2100])
        partial.checkpoint(ckpt)
        del partial

        def resume():
            return ingest_stream(
                events, self.N, self.T,
                chunk_events=256, checkpoint_path=ckpt,
            )

        resumed = within_watchdog(resume)
        assert resumed == reference
        assert not os.path.exists(ckpt)  # cleaned up after success

    def test_kill_mid_stream_then_rerun_converges(self, tmp_path):
        """A seal fault after a checkpoint aborts the run; the rerun
        resumes from the surviving checkpoint and matches exactly."""
        events = self._events()
        reference = self._reference(events)
        ckpt = str(tmp_path / "ingest.ckpt.npz")

        partial = StreamingStoreBuilder(self.N, self.T, chunk_events=256)
        partial.extend(events[0][:1500], events[1][:1500], events[2][:1500])
        partial.checkpoint(ckpt)
        del partial

        plans = {"ingest.seal": FaultPlan(rate=1.0, max_triggers=1)}
        with fault_injector.arm(plans, seed=CHAOS_SEED):
            with pytest.raises(InjectedFault):
                ingest_stream(
                    events, self.N, self.T,
                    chunk_events=256, checkpoint_path=ckpt,
                )
        assert os.path.exists(ckpt)  # the crash never destroys progress

        resumed = ingest_stream(
            events, self.N, self.T,
            chunk_events=256, checkpoint_path=ckpt,
        )
        assert resumed == reference
        assert not os.path.exists(ckpt)
