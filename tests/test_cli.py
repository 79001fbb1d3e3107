"""CLI smoke tests."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "email" in out and "gdelt" in out

    def test_list_generators(self, capsys):
        from repro import api

        assert main(["list-generators"]) == 0
        out = capsys.readouterr().out
        for name in api.list_generators():
            assert name in out

    def test_train_and_generate(self, tmp_path, capsys):
        model_path = str(tmp_path / "m.npz")
        rc = main([
            "train", "--dataset", "email", "--scale", "0.012",
            "--epochs", "2", "--hidden-dim", "8", "--latent-dim", "4",
            "--model-out", model_path,
        ])
        assert rc == 0
        out_path = str(tmp_path / "g.npz")
        rc = main([
            "generate", "--model", model_path, "--timesteps", "3",
            "--out", out_path,
        ])
        assert rc == 0
        from repro.graph import io as graph_io

        g = graph_io.load(out_path)
        assert g.num_timesteps == 3
        # sharded decode is a deployment knob: same seed, same graph
        sharded_path = str(tmp_path / "g_sharded.npz")
        rc = main([
            "generate", "--model", model_path, "--timesteps", "3",
            "--out", sharded_path, "--shards", "3", "--executor", "thread",
        ])
        assert rc == 0
        assert graph_io.load(sharded_path).store == g.store

    def test_train_and_generate_baseline_artifact(self, tmp_path, capsys):
        """Any registered generator trains and generates through the CLI."""
        from repro import api
        from repro.graph import io as graph_io

        model_path = str(tmp_path / "taggen.npz")
        rc = main([
            "train", "--dataset", "email", "--scale", "0.012",
            "--generator", "TagGen",
            "--generator-config", '{"walks_per_edge": 1.0}',
            "--model-out", model_path,
        ])
        assert rc == 0
        assert api.is_artifact(model_path)
        out_path = str(tmp_path / "taggen_g.npz")
        rc = main([
            "generate", "--model", model_path, "--timesteps", "3",
            "--out", out_path,
        ])
        assert rc == 0
        assert graph_io.load(out_path).num_timesteps == 3
        # non-VRDAG artifacts reject the sharded decode with a clean exit
        rc = main([
            "generate", "--model", model_path, "--timesteps", "3",
            "--out", out_path, "--shards", "2",
        ])
        assert rc == 2

    def test_generate_reads_legacy_v1_model(self, tmp_path):
        """Pre-artifact VRDAG files still drive the generate command."""
        import numpy as np

        from repro.api import load_artifact, save_artifact
        from repro.graph import io as graph_io

        artifact = str(tmp_path / "m.npz")
        rc = main([
            "train", "--dataset", "email", "--scale", "0.012",
            "--epochs", "2", "--hidden-dim", "8", "--latent-dim", "4",
            "--model-out", artifact,
        ])
        assert rc == 0
        # rewrite the artifact in the legacy v1 layout by hand
        from repro.core.persistence import _FORMAT_VERSION, vrdag_state
        import json as json_mod

        model = load_artifact(artifact).model
        state = vrdag_state(model)
        arrays = dict(state["arrays"])
        arrays["calib::has_target_mean"] = np.array(
            "calib::target_mean" in arrays
        )
        legacy = str(tmp_path / "legacy.npz")
        np.savez_compressed(
            legacy,
            version=np.array(_FORMAT_VERSION),
            config=np.frombuffer(
                json_mod.dumps(state["config"]).encode(), dtype=np.uint8
            ),
            **arrays,
        )
        out_new, out_old = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        assert main(["generate", "--model", artifact, "--timesteps", "2",
                     "--out", out_new]) == 0
        assert main(["generate", "--model", legacy, "--timesteps", "2",
                     "--out", out_old]) == 0
        assert graph_io.load(out_old) == graph_io.load(out_new)

    def test_run_pipeline_from_config(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "dataset": "email",
            "scale": 0.012,
            "generator": "ErdosRenyi",
            "metrics": ["structure"],
            "timesteps": 2,
        }))
        out_path = tmp_path / "result.json"
        rc = main(["run", "--config", str(config_path),
                   "--out", str(out_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["generator"] == "ErdosRenyi"
        assert "structure" in payload["metrics"]
        assert json.loads(out_path.read_text()) == payload

    def test_ingest_event_log(self, tmp_path, capsys):
        import numpy as np

        from repro.graph import io as graph_io
        from repro.graph.store import TemporalEdgeStore

        rng = np.random.default_rng(2)
        src, dst, t = (
            rng.integers(0, 20, size=400),
            rng.integers(0, 20, size=400),
            rng.integers(0, 4, size=400),
        )
        events_path = str(tmp_path / "events.npz")
        graph_io.save_events(
            events_path, src, dst, t, num_nodes=20, num_timesteps=4
        )
        out_path = str(tmp_path / "ingested.npz")
        rc = main([
            "ingest", "--events", events_path, "--out", out_path,
            "--memory-budget-mb", "0.1",
        ])
        assert rc == 0
        assert graph_io.load(out_path).store == TemporalEdgeStore(
            20, 4, src, dst, t
        )

    def test_experiment_json_output(self, capsys):
        rc = main([
            "experiment", "--name", "fig3", "--dataset", "email",
            "--scale", "0.012", "--epochs", "2",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "VRDAG" in payload

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--name", "table99"])

    def test_compare_report(self, tmp_path, capsys):
        import numpy as np

        from repro.graph import DynamicAttributedGraph, io as graph_io

        rng = np.random.default_rng(0)
        adj = (rng.random((3, 12, 12)) < 0.2).astype(float)
        for t in range(3):
            np.fill_diagonal(adj[t], 0.0)
        attrs = rng.normal(size=(3, 12, 2))
        a = DynamicAttributedGraph.from_tensors(adj, attrs)
        b = DynamicAttributedGraph.from_tensors(
            adj[:, :, :], attrs + rng.normal(0, 0.1, size=attrs.shape)
        )
        pa, pb = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        graph_io.save(a, pa)
        graph_io.save(b, pb)
        assert main(["compare", "--original", pa, "--synthetic", pb]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "fidelity" in payload and "privacy" in payload
        assert payload["privacy"]["edge_overlap"] == 1.0

    def test_compare_json_flag(self, tmp_path, capsys):
        import numpy as np

        from repro.graph import DynamicAttributedGraph, io as graph_io

        rng = np.random.default_rng(3)
        adj = (rng.random((2, 10, 10)) < 0.2).astype(float)
        for t in range(2):
            np.fill_diagonal(adj[t], 0.0)
        g = DynamicAttributedGraph.from_tensors(adj)
        pa, pb = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        graph_io.save(g, pa)
        graph_io.save(g, pb)
        assert main(["compare", "--original", pa, "--synthetic", pb,
                     "--json"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1  # single machine line
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["privacy"]["edge_overlap"] == 1.0

    def test_compare_load_failure_exits_nonzero(self, tmp_path, capsys):
        """CI can gate on compare: load failures are a clean nonzero exit."""
        rc = main([
            "compare", "--original", str(tmp_path / "nope.npz"),
            "--synthetic", str(tmp_path / "nope2.npz"), "--json",
        ])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "nope.npz" in payload["error"]
        # same contract without --json: message on stderr, nonzero exit
        rc = main([
            "compare", "--original", str(tmp_path / "nope.npz"),
            "--synthetic", str(tmp_path / "nope2.npz"),
        ])
        assert rc == 2
        assert "nope.npz" in capsys.readouterr().err

    def test_train_profile_prints_tape_timers(self, tmp_path, capsys):
        model_path = str(tmp_path / "m.npz")
        rc = main([
            "train", "--dataset", "email", "--scale", "0.012",
            "--epochs", "2", "--hidden-dim", "8", "--latent-dim", "4",
            "--profile",
            "--model-out", model_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trainer.forward" in out
        assert "trainer.backward" in out
        # per-op tape timers from the profiled fit
        assert "tape.op." in out
        assert "tape.vjp." in out

    def _save_workload_graph(self, tmp_path):
        import numpy as np

        from repro.graph import DynamicAttributedGraph
        from repro.graph import io as graph_io
        from repro.graph.store import TemporalEdgeStore

        rng = np.random.default_rng(0)
        n, m, t_len = 30, 250, 4
        graph = DynamicAttributedGraph.from_store(TemporalEdgeStore(
            n, t_len,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.integers(0, t_len, size=m),
            rng.normal(size=(t_len, n, 2)),
        ))
        path = str(tmp_path / "wl.npz")
        graph_io.save(graph, path)
        return path

    def test_verify_queries_json_report(self, tmp_path, capsys):
        path = self._save_workload_graph(tmp_path)
        rc = main([
            "verify-queries", "--graph", path, "--num-queries", "120",
            "--batch-size", "32", "--executor", "serial", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["mode"] == "serial"
        assert payload["queries"] == 120
        assert payload["verified_batches"] == 4
        assert payload["epochs_served"] == [4]
        assert sum(k["count"] for k in payload["per_kind"].values()) == 120
        assert payload["plan_cache"]["misses"] > 0
        assert not {"seconds", "qps", "batched_speedup"} & set(payload)

    # reachability-heavy, so a corrupted batch_temporal_reach is served
    _REACH_MIX = (
        '{"temporal_reach": 0.5, "out_neighbors": 0.3, "has_edge": 0.2}'
    )
    _MODES = {
        "serial": ["--executor", "serial"],
        "thread": ["--executor", "thread", "--workers", "2"],
        "process": ["--executor", "process", "--workers", "2"],
        "live": ["--executor", "thread", "--live", "--live-rate", "1000"],
    }

    def _verify(self, path, mode):
        return main([
            "verify-queries", "--graph", path, "--num-queries", "120",
            "--batch-size", "16", "--mix", self._REACH_MIX, "--json",
        ] + self._MODES[mode])

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_verify_queries_every_mode_passes(self, tmp_path, capsys, mode):
        path = self._save_workload_graph(tmp_path)
        assert self._verify(path, mode) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["mode"] == mode
        # --live serves every batch mid-ingest and again at the end
        batches = 8 * (2 if mode == "live" else 1)
        assert payload["verified_batches"] == batches
        if mode == "live":
            # the paced writer holds epoch 0 open for the first batch
            assert len(payload["epochs_served"]) >= 2
            assert payload["epochs_served"][-1] == 4
        else:
            assert payload["epochs_served"] == [4]

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_verify_queries_catches_corrupted_batched_kernel(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        """A wrong batched kernel fails the run in every mode (the
        process workers fork with the patched class)."""
        from repro.workloads import GraphQueryEngine

        original = GraphQueryEngine.batch_temporal_reach

        def corrupted(self, *columns):
            out = original(self, *columns).copy()
            out[0] = not out[0]
            return out

        monkeypatch.setattr(
            GraphQueryEngine, "batch_temporal_reach", corrupted
        )
        path = self._save_workload_graph(tmp_path)
        assert self._verify(path, mode) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "diverged from per-query dispatch" in payload["error"]

    def test_verify_queries_failed_request_exits_nonzero(
        self, tmp_path, capsys
    ):
        from repro.reliability import FaultPlan, fault_injector

        path = self._save_workload_graph(tmp_path)
        with fault_injector.arm(
            {"query.request": FaultPlan(max_triggers=1)}
        ):
            rc = self._verify(path, "serial")
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "failed" in payload["error"]

    def test_verify_queries_custom_mix_and_cache_budget(
        self, tmp_path, capsys
    ):
        path = self._save_workload_graph(tmp_path)
        rc = main([
            "verify-queries", "--graph", path, "--num-queries", "60",
            "--mix", '{"has_edge": 0.5, "out_neighbors": 0.5}',
            "--cache-budget-mb", "0.001", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["per_kind"]) == {"has_edge", "out_neighbors"}

    def test_verify_queries_unknown_mix_kind_rejected(self, tmp_path, capsys):
        path = self._save_workload_graph(tmp_path)
        rc = main([
            "verify-queries", "--graph", path, "--mix",
            '{"teleport": 1.0}', "--json",
        ])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "teleport" in payload["error"]

    def test_verify_queries_malformed_mix_rejected(self, tmp_path, capsys):
        path = self._save_workload_graph(tmp_path)
        for bad in ('{bad', '["has_edge"]', '{"has_edge": "lots"}'):
            rc = main([
                "verify-queries", "--graph", path, "--mix", bad, "--json",
            ])
            assert rc == 2, bad
            payload = json.loads(capsys.readouterr().out)
            assert payload["status"] == "error"

    def test_verify_queries_invalid_settings_fail_cleanly(
        self, tmp_path, capsys
    ):
        """Config/weight errors keep the single-line JSON contract."""
        path = self._save_workload_graph(tmp_path)
        bad_invocations = [
            ["--mix", '{"has_edge": -1.0}'],     # negative weight
            ["--mix", '{"has_edge": NaN}'],      # NaN probability
            ["--mix", "{}"],                     # empty custom mix
            ["--num-queries", "0"],
            ["--cache-budget-mb", "0"],
            ["--batch-size", "0"],
        ]
        for extra in bad_invocations:
            rc = main(["verify-queries", "--graph", path, "--json"] + extra)
            assert rc == 2, extra
            payload = json.loads(capsys.readouterr().out)
            assert payload["status"] == "error", extra

    def test_verify_queries_attribute_free_graph_empty_mix(
        self, tmp_path, capsys
    ):
        import numpy as np

        from repro.graph import DynamicAttributedGraph
        from repro.graph import io as graph_io
        from repro.graph.store import TemporalEdgeStore

        rng = np.random.default_rng(1)
        graph = DynamicAttributedGraph.from_store(TemporalEdgeStore(
            20, 3,
            rng.integers(0, 20, size=80),
            rng.integers(0, 20, size=80),
            rng.integers(0, 3, size=80),
        ))
        path = str(tmp_path / "bare.npz")
        graph_io.save(graph, path)
        # the default serving mix still works (attribute_range dropped)
        rc = main([
            "verify-queries", "--graph", path, "--num-queries", "40",
            "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "attribute_range" not in payload["per_kind"]
        # an attribute-only mix collapses to empty -> clean error
        rc = main([
            "verify-queries", "--graph", path,
            "--mix", '{"attribute_range": 1.0}', "--json",
        ])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "no attributes" in payload["error"]

    def test_verify_queries_load_failure_exits_nonzero(
        self, tmp_path, capsys
    ):
        """CI gates on verify-queries the same way it gates on compare."""
        rc = main([
            "verify-queries", "--graph", str(tmp_path / "nope.npz"), "--json",
        ])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        rc = main(["verify-queries", "--graph", str(tmp_path / "nope.npz")])
        assert rc == 2
        assert "nope.npz" in capsys.readouterr().err
