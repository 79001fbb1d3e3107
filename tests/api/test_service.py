"""GenerationService: batch output bit-identical to serial generation."""

import pytest

from repro import api
from repro.reliability import FaultPlan, fault_injector


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Two fitted artifacts: a VRDAG and a cheap baseline."""
    from repro.datasets import load_dataset

    root = tmp_path_factory.mktemp("service-artifacts")
    graph = load_dataset("email", scale=0.012, seed=0)
    paths = {}
    for name in ("VRDAG", "ErdosRenyi"):
        generator = api.get_generator(name, seed=0, **api.smoke_config(name))
        generator.fit(graph)
        paths[name] = str(root / f"{name}.npz")
        api.save_artifact(generator, paths[name])
    return paths


def _requests(artifacts):
    return [
        api.GenerationRequest(artifacts["VRDAG"], num_timesteps=3, seed=0),
        api.GenerationRequest(artifacts["VRDAG"], num_timesteps=3, seed=1),
        api.GenerationRequest(artifacts["VRDAG"], num_timesteps=2, seed=0,
                              shards=3),
        api.GenerationRequest(artifacts["ErdosRenyi"], num_timesteps=4,
                              seed=2),
        api.GenerationRequest(artifacts["ErdosRenyi"], num_timesteps=4,
                              seed=3),
    ]


def _serial_reference(requests):
    out = []
    for req in requests:
        generator = api.load_artifact(req.artifact)
        out.append(generator.generate(req.num_timesteps, seed=req.seed))
    return out


class TestGenerationService:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_batch_bit_identical_to_serial(self, artifacts, executor):
        requests = _requests(artifacts)
        with api.GenerationService(executor=executor, max_workers=3) as svc:
            results = svc.run_batch(requests)
        reference = _serial_reference(requests)
        assert [r.request for r in results] == requests  # request order kept
        for result, expected in zip(results, reference):
            assert result.graph == expected
            assert result.seconds >= 0

    def test_repeated_batches_reuse_pool(self, artifacts):
        requests = _requests(artifacts)[:2]
        with api.GenerationService(executor="thread") as svc:
            first = svc.run_batch(requests)
            second = svc.run_batch(requests)
        for a, b in zip(first, second):
            assert a.graph == b.graph  # determinism across batches too

    def test_concurrent_first_batches_share_one_pool(
        self, artifacts, monkeypatch
    ):
        """Two callers racing into their first batch create one pool.

        A slow pool constructor widens the window between "no pool
        yet" and "pool assigned"; an unlocked check-then-create would
        build two pools and leak one past ``close()``.
        """
        import concurrent.futures
        import threading
        import time

        created = []
        real = concurrent.futures.ThreadPoolExecutor

        class SlowPool(real):
            def __init__(self, *args, **kwargs):
                time.sleep(0.2)
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowPool)
        requests = _requests(artifacts)[3:4]
        svc = api.GenerationService(executor="thread", max_workers=2)
        barrier = threading.Barrier(2)
        outputs = []

        def first_batch():
            barrier.wait()
            outputs.append(svc.run_batch(requests))

        callers = [threading.Thread(target=first_batch) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(30.0)
        svc.close()
        assert len(outputs) == 2 and all(r.ok for o in outputs for r in o)
        assert len(created) == 1
        assert all(pool._shutdown for pool in created)

    def test_empty_batch(self):
        assert api.GenerationService(executor="serial").run_batch([]) == []

    def test_thread_batches_do_not_leak_grad_mode(self, artifacts):
        """Concurrent no_grad generates must not disable autodiff globally.

        Grad mode is thread-local (see autodiff.tensor._GradMode);
        with a process-global flag, interleaved save/restore across
        worker threads could leave tape recording off for the rest of
        the process.
        """
        from repro.autodiff import is_grad_enabled

        requests = [
            api.GenerationRequest(artifacts["VRDAG"], num_timesteps=2, seed=s)
            for s in range(8)
        ]
        with api.GenerationService(executor="thread", max_workers=4) as svc:
            svc.run_batch(requests)
        assert is_grad_enabled()

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            api.GenerationService(executor="gpu")

    def test_shards_on_non_vrdag_rejected(self, artifacts):
        """A bad request fails structurally without poisoning siblings."""
        bad = api.GenerationRequest(
            artifacts["ErdosRenyi"], num_timesteps=2, shards=2
        )
        good = api.GenerationRequest(
            artifacts["ErdosRenyi"], num_timesteps=2, seed=0
        )
        results = api.GenerationService(executor="serial").run_batch(
            [good, bad, good]
        )
        assert results[0].ok and results[2].ok
        assert results[0].graph == results[2].graph
        assert not results[1].ok and results[1].graph is None
        assert results[1].error.error_type == "ValueError"
        assert "shards=1" in results[1].error.message

    def test_request_validation(self):
        with pytest.raises(ValueError, match="num_timesteps"):
            api.GenerationRequest("x.npz", num_timesteps=0)
        with pytest.raises(ValueError, match="shards"):
            api.GenerationRequest("x.npz", num_timesteps=1, shards=0)


class TestEveryRequestLoadsItsArtifact:
    """Each request opens, verifies and rebuilds its own generator:
    nothing is cached across requests or batches."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_one_load_per_request(self, artifacts, executor):
        requests = [
            api.GenerationRequest(artifacts["VRDAG"], num_timesteps=2, seed=s)
            for s in range(4)
        ]
        counting = {"artifact.load": FaultPlan(kind="delay")}
        with fault_injector.arm(counting):
            with api.GenerationService(executor=executor,
                                       max_workers=2) as svc:
                assert all(r.ok for r in svc.run_batch(requests))
            loads = fault_injector.stats()["artifact.load"]
        assert loads == {"arrivals": len(requests), "triggers": len(requests)}

    def test_overwritten_file_is_served_fresh(self, tmp_path):
        from repro.datasets import load_dataset

        path = str(tmp_path / "swapped.npz")
        request = api.GenerationRequest(path, num_timesteps=3, seed=0)
        served = []
        with api.GenerationService(executor="serial") as svc:
            for data_seed in (0, 1):
                generator = api.get_generator(
                    "ErdosRenyi", seed=0, **api.smoke_config("ErdosRenyi")
                )
                generator.fit(load_dataset("email", scale=0.012,
                                           seed=data_seed))
                api.save_artifact(generator, path)
                (result,) = svc.run_batch([request])
                assert result.graph == generator.generate(3, seed=0)
                served.append(result.graph)
        assert served[0] != served[1]
