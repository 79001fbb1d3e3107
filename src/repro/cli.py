"""Command-line interface, built on the :mod:`repro.api` facade.

Any registered generator can be trained, saved, loaded and served by
name; ``run`` executes a whole dataset × generator × metrics pipeline
from one JSON config.

Examples
--------
::

    python -m repro.cli list-datasets
    python -m repro.cli list-generators
    python -m repro.cli train --dataset email --generator VRDAG \
        --scale 0.03 --epochs 25 --model-out /tmp/vrdag_email.npz
    python -m repro.cli train --dataset email --generator TagGen \
        --generator-config '{"walk_length": 10}' --model-out /tmp/taggen.npz
    python -m repro.cli generate --model /tmp/vrdag_email.npz \
        --timesteps 14 --out /tmp/synthetic.npz --shards 4 --executor process
    python -m repro.cli run --config examples/run_config.json
    python -m repro.cli ingest --events /tmp/events.npz \
        --out /tmp/graph.npz --memory-budget-mb 64
    python -m repro.cli experiment --name table1 --dataset email
    python -m repro.cli compare --original a.npz --synthetic b.npz --json
    python -m repro.cli bench-queries --graph /tmp/graph.npz \
        --num-queries 2000 --batch-size 256 --executor thread --json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.datasets import list_datasets, load_dataset
from repro.eval import experiments as E
from repro.graph import io as graph_io

_EXPERIMENTS = {
    "table1": lambda a: E.run_table1(a.dataset, scale=a.scale, epochs=a.epochs),
    "table2": lambda a: E.run_table2(a.dataset, scale=a.scale, epochs=a.epochs),
    "fig3": lambda a: E.run_fig3(a.dataset, scale=a.scale, epochs=a.epochs),
    "fig9": lambda a: E.run_fig9_times(a.dataset, scale=a.scale, epochs=a.epochs),
    "fig10": lambda a: E.run_fig10(
        a.dataset, scale=a.scale, vrdag_epochs=a.epochs
    ),
    "ablation": lambda a: E.run_ablation(a.dataset, scale=a.scale, epochs=a.epochs),
    "privacy": lambda a: E.run_privacy_audit(
        a.dataset, scale=a.scale, epochs=a.epochs
    ),
    "workload": lambda a: E.run_workload_profile(
        a.dataset, scale=a.scale, epochs=a.epochs
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="VRDAG reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="list dataset twins")

    sub.add_parser(
        "list-generators",
        help="list every generator in the repro.api registry",
    )

    train = sub.add_parser(
        "train", help="fit any registered generator on a dataset twin"
    )
    train.add_argument("--dataset", required=True, choices=list_datasets())
    train.add_argument(
        "--generator", default="VRDAG",
        help="registry name (see list-generators); default VRDAG",
    )
    train.add_argument(
        "--generator-config", default=None,
        help="JSON object of constructor kwargs for the generator",
    )
    train.add_argument("--scale", type=float, default=0.03)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--epochs", type=int, default=25,
        help="training epochs (VRDAG only; other generators ignore it "
        "unless set via --generator-config)",
    )
    train.add_argument("--hidden-dim", type=int, default=24,
                       help="VRDAG only")
    train.add_argument("--latent-dim", type=int, default=12,
                       help="VRDAG only")
    train.add_argument(
        "--profile", action="store_true",
        help="run fit under the profiler and print the per-scope "
        "report (includes per-op tape.op.* / tape.vjp.* timers)",
    )
    train.add_argument("--model-out", required=True)

    gen = sub.add_parser(
        "generate", help="generate from any saved generator artifact"
    )
    gen.add_argument("--model", required=True)
    gen.add_argument("--timesteps", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument(
        "--shards", type=int, default=1,
        help="node shards for the VRDAG structure decode "
        "(seed-deterministic: any shard count yields the identical graph)",
    )
    gen.add_argument(
        "--executor", choices=("serial", "thread", "process"),
        default="serial", help="how shards are executed",
    )

    run = sub.add_parser(
        "run",
        help="one-shot fit -> generate -> evaluate pipeline from a "
        "JSON config (see docs/api.md)",
    )
    run.add_argument(
        "--config", required=True,
        help="JSON file with at least dataset and generator keys",
    )
    run.add_argument(
        "--out", default=None,
        help="also write the result JSON to this path",
    )

    ingest = sub.add_parser(
        "ingest",
        help="fold a raw (src, dst, t) event log into a canonical "
        "columnar graph archive under a memory budget",
    )
    ingest.add_argument("--events", required=True,
                        help="event-log npz written by graph.io.save_events")
    ingest.add_argument("--out", required=True)
    ingest.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="bound on the transient canonicalization working set",
    )
    ingest.add_argument(
        "--checkpoint", default=None,
        help="crash-safe resumable ingestion: persist builder state "
        "here and resume from it if the file exists "
        "(see docs/reliability.md)",
    )
    ingest.add_argument(
        "--checkpoint-every", type=int, default=None,
        help="events between checkpoints (default: one chunk)",
    )

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("--name", required=True, choices=sorted(_EXPERIMENTS))
    exp.add_argument("--dataset", default="email")
    exp.add_argument("--scale", type=float, default=0.03)
    exp.add_argument("--epochs", type=int, default=12)

    bq = sub.add_parser(
        "bench-queries",
        help="replay a workload query mix through the batched "
        "QueryService and report throughput (see docs/workloads.md)",
    )
    bq.add_argument("--graph", required=True,
                    help="graph archive written by graph.io.save")
    bq.add_argument("--num-queries", type=int, default=1000)
    bq.add_argument("--batch-size", type=int, default=256)
    bq.add_argument(
        "--executor", choices=("serial", "thread", "process"),
        default="thread",
        help="'serial'/'thread' run the single-process QueryService; "
        "'process' runs the multi-process serving tier "
        "(ProcessQueryService: shared-memory store segments + "
        "request router, see docs/workloads.md)",
    )
    bq.add_argument("--workers", type=int, default=None,
                    help="thread-pool width, or worker-process count "
                    "for --executor process (default: cpu count / 2 "
                    "processes)")
    bq.add_argument(
        "--worker-sweep", default=None,
        help="comma-separated worker counts (process executor only): "
        "replay the workload once per count and emit the scaling "
        "curve under 'scaling'",
    )
    bq.add_argument(
        "--verify-single-process", action="store_true",
        help="also run the workload through a single-process serial "
        "QueryService and fail (nonzero exit) unless results are "
        "bit-identical",
    )
    bq.add_argument(
        "--cache-budget-mb", type=float, default=None,
        help="bound on the snapshot-plan cache (default: unbounded)",
    )
    bq.add_argument("--seed", type=int, default=0)
    bq.add_argument(
        "--mix", default=None,
        help="JSON object of query-kind weights (default: the "
        "point-lookup-heavy serving mix)",
    )
    bq.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline; expired requests come back as "
        "structured failures (see docs/reliability.md)",
    )
    bq.add_argument(
        "--max-pending", type=int, default=None,
        help="bound on requests in flight; overflow is shed with a "
        "structured overload error instead of queueing",
    )
    bq.add_argument(
        "--compare-per-query", action="store_true",
        help="also run the per-query dispatch baseline and report "
        "the batched speedup",
    )
    bq.add_argument(
        "--live", action="store_true",
        help="replay the archive's events through a LiveStoreBuilder "
        "on a writer thread and serve the workload with "
        "LiveQueryService while ingestion runs; every served batch "
        "reports its pinned epoch (serial/thread executors only, "
        "see docs/workloads.md)",
    )
    bq.add_argument(
        "--live-rate", type=float, default=None,
        help="target sustained ingest rate in events/s for --live "
        "(default: unthrottled)",
    )
    bq.add_argument(
        "--verify-bulk-equivalence", action="store_true",
        help="with --live: re-answer every served batch against a "
        "bulk-built store of its pinned epoch's event prefix and "
        "fail (nonzero exit) on any mismatch",
    )
    bq.add_argument(
        "--json", action="store_true",
        help="machine-readable output: single-line JSON with a status "
        "field; load failures exit nonzero instead of raising",
    )

    cmp_ = sub.add_parser(
        "compare",
        help="fidelity + leakage report between two saved graphs",
    )
    cmp_.add_argument("--original", required=True)
    cmp_.add_argument("--synthetic", required=True)
    cmp_.add_argument(
        "--json", action="store_true",
        help="machine-readable output: single-line JSON with a status "
        "field; load failures exit nonzero instead of raising",
    )

    return parser


def _cmd_train(args) -> int:
    from repro import api
    from repro.profiling import profiler

    config = json.loads(args.generator_config) if args.generator_config else {}
    config.setdefault("seed", args.seed)
    if args.generator == "VRDAG":
        config.setdefault("epochs", args.epochs)
        config.setdefault("hidden_dim", args.hidden_dim)
        config.setdefault("latent_dim", args.latent_dim)
        config.setdefault("encode_dim", args.hidden_dim)
    generator = api.get_generator(args.generator, **config)

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    print(f"fitting {args.generator} on {graph}")
    if args.profile:
        profiler.reset()
        with profiler.enable():
            generator.fit(graph)
        print(profiler.report())
    else:
        generator.fit(graph)
    api.save_artifact(generator, args.model_out)
    result = getattr(generator, "train_result", None)
    if result is not None:
        print(
            f"loss {result.loss_history[0]:.3f} -> {result.final_loss:.3f}; "
            f"artifact saved to {args.model_out}"
        )
    else:
        print(f"fitted; artifact saved to {args.model_out}")
    return 0


def _cmd_generate(args) -> int:
    from repro import api
    from repro.api.pipeline import generate_with_decode

    if api.is_artifact(args.model):
        generator = api.load_artifact(args.model)
    else:  # legacy VRDAG-only model file
        from repro.core.persistence import load_model
        from repro.eval.harness import VRDAGGenerator

        generator = VRDAGGenerator.from_model(load_model(args.model))
    try:
        synthetic = generate_with_decode(
            generator, args.timesteps, args.seed,
            shards=args.shards, executor=args.executor,
        )
    except ValueError as exc:  # e.g. --shards on a non-VRDAG artifact
        print(f"generate: {exc}", file=sys.stderr)
        return 2
    graph_io.save(synthetic, args.out)
    print(f"generated {synthetic} -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    from repro.api import Pipeline

    with open(args.config) as handle:
        config = json.load(handle)
    result = Pipeline.from_dict(config).run()
    payload = json.dumps(result.to_dict(), indent=2)
    print(payload)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    return 0


def _bench_queries_live(args, graph, mix, budget, deadline_seconds, fail):
    """``bench-queries --live``: query while ingesting, epochs pinned.

    Replays the archive's own event columns timestep-by-timestep
    through a :class:`LiveStoreBuilder` on a writer thread (sealing
    each step, optionally paced by ``--live-rate``) while the main
    thread serves the deterministic workload through a
    :class:`LiveQueryService` — once mid-ingest, then once more at the
    final epoch after the writer joins.  With
    ``--verify-bulk-equivalence`` every served batch is re-answered
    against a bulk-built store of its pinned epoch's event prefix and
    any divergence is a nonzero exit (the ``live-smoke`` CI contract).
    """
    import threading
    import time

    import numpy as np

    from repro.graph.dynamic import DynamicAttributedGraph
    from repro.graph.live import LiveStoreBuilder, snapshot_owned_bytes
    from repro.graph.store import TemporalEdgeStore
    from repro.reliability import ServiceOverloadedError
    from repro.workloads import (
        LiveQueryService,
        QueryRequest,
        WorkloadConfig,
        WorkloadGenerator,
        run_queries_batched,
    )
    from repro.workloads.engine import GraphQueryEngine

    store = graph.store
    n_steps = store.num_timesteps
    offsets = store.offsets
    try:
        config = WorkloadConfig(
            num_queries=args.num_queries, mix=mix, seed=args.seed
        )
        queries = WorkloadGenerator(graph, config).generate()
        if not queries:
            raise ValueError("workload generated no queries")
        requests = [
            QueryRequest(queries[i:i + args.batch_size])
            for i in range(0, len(queries), args.batch_size)
        ]
        builder = LiveStoreBuilder(
            store.num_nodes, n_steps, attributes=store.attributes
        )
        service = LiveQueryService(
            builder,
            executor=args.executor,
            max_workers=args.workers,
            cache_memory_budget_bytes=budget,
            deadline_seconds=deadline_seconds,
            max_pending=args.max_pending,
        )
    except ValueError as exc:
        return fail(str(exc))

    writer_error = []
    writer_stats = {}

    def write():
        start = time.perf_counter()
        try:
            for step in range(n_steps):
                lo, hi = int(offsets[step]), int(offsets[step + 1])
                builder.extend(
                    store.src[lo:hi], store.dst[lo:hi], store.t[lo:hi]
                )
                if args.live_rate is not None:
                    lag = (
                        builder.events_ingested / args.live_rate
                        - (time.perf_counter() - start)
                    )
                    if lag > 0:
                        time.sleep(lag)
                builder.seal_step()
        except Exception as exc:
            writer_error.append(exc)
        finally:
            writer_stats["seconds"] = time.perf_counter() - start

    samples = []  # (epoch, request, result) for every served batch
    live_latencies = []
    final_latencies = []
    shed_batches = 0
    with service:
        writer = threading.Thread(
            target=write, name="live-ingest", daemon=True
        )
        writer.start()
        try:
            for request in requests:
                t0 = time.perf_counter()
                try:
                    epoch, results = service.run_batch([request])
                except ServiceOverloadedError:
                    shed_batches += 1
                    continue
                live_latencies.append(time.perf_counter() - t0)
                samples.append((epoch, request, results[0]))
        finally:
            writer.join()
        if writer_error:
            return fail(f"ingest writer failed: {writer_error[0]}")
        final_epoch = service.refresh()
        _, final_store = builder.snapshot()
        for request in requests:
            t0 = time.perf_counter()
            try:
                epoch, results = service.run_batch([request], refresh=False)
            except ServiceOverloadedError:
                shed_batches += 1
                continue
            final_latencies.append(time.perf_counter() - t0)
            samples.append((epoch, request, results[0]))
        stats = service.plan_cache_stats()
        live = service.live_stats()

    ingest_seconds = writer_stats.get("seconds", 0.0)
    payload = {
        "status": "ok",
        "graph": str(graph.statistics()),
        "mode": "live",
        "queries": len(queries),
        "batch_size": args.batch_size,
        "executor": args.executor,
        "batches_served": len(samples),
        "shed_batches": shed_batches,
        "failed_requests": sum(1 for _, _, r in samples if not r.ok),
        "final_epoch": final_epoch,
        "epochs_served": sorted({e for e, _, _ in samples}),
        "ingest": {
            "events": builder.events_ingested,
            "sealed_events": builder.sealed_events,
            "seconds": ingest_seconds,
            "events_per_s": (
                builder.events_ingested / ingest_seconds
                if ingest_seconds
                else float("inf")
            ),
            "target_rate": args.live_rate,
        },
        "latency": {
            "p50_live_batch_s": (
                float(np.median(live_latencies)) if live_latencies else None
            ),
            "p50_final_epoch_batch_s": (
                float(np.median(final_latencies)) if final_latencies else None
            ),
        },
        "snapshot_owned_bytes": snapshot_owned_bytes(final_store),
        "live": {
            "refreshes": live.refreshes,
            "epoch_advances": live.epoch_advances,
            "stale_refreshes": live.stale_refreshes,
        },
        "plan_cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "invalidations": stats.invalidations,
            "resident_bytes": stats.resident_bytes,
            "bypasses": stats.bypasses,
            "hit_rate": stats.hit_rate,
        },
    }
    if args.verify_bulk_equivalence:
        # re-answer every served batch against a bulk-built store of
        # its pinned epoch's event prefix — the consistency contract
        oracles = {}

        def oracle(epoch):
            engine = oracles.get(epoch)
            if engine is None:
                end = int(offsets[epoch])
                prefix = TemporalEdgeStore(
                    store.num_nodes,
                    n_steps,
                    store.src[:end].copy(),
                    store.dst[:end].copy(),
                    store.t[:end].copy(),
                    store.attributes,
                )
                engine = GraphQueryEngine(
                    DynamicAttributedGraph.from_store(prefix)
                )
                oracles[epoch] = engine
            return engine

        checked = 0
        for epoch, request, result in samples:
            if not result.ok:
                continue
            reference, _ = run_queries_batched(
                oracle(epoch), request.queries
            )
            checked += 1
            if not np.array_equal(result.cardinalities, reference):
                return fail(
                    "bulk-equivalence verification failed: a batch "
                    f"pinned at epoch {epoch} diverged from the "
                    "bulk-built store of that epoch's event prefix"
                )
        payload["verified_bulk_equivalence"] = True
        payload["verified_batches"] = checked
    if args.json:
        print(json.dumps(payload))
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_bench_queries(args) -> int:
    from repro.workloads import (
        QueryKind,
        QueryService,
        WorkloadConfig,
        execute_workload,
        serving_mix,
    )

    def fail(message: str) -> int:
        if args.json:
            print(json.dumps({"status": "error", "error": message}))
        else:
            print(f"bench-queries: {message}", file=sys.stderr)
        return 2

    try:
        graph = graph_io.load(args.graph)
    except Exception as exc:
        return fail(f"cannot load graph: {exc}")

    mix = serving_mix()
    if args.mix is not None:
        kinds = {k.value: k for k in QueryKind}
        try:
            parsed = json.loads(args.mix)
            if not isinstance(parsed, dict):
                raise ValueError("--mix must be a JSON object")
            mix = {kinds[name]: float(w) for name, w in parsed.items()}
        except KeyError as exc:
            return fail(f"unknown query kind {exc.args[0]!r}")
        except (TypeError, ValueError) as exc:
            return fail(f"invalid --mix: {exc}")
    if graph.num_attributes == 0 and mix.pop(
        QueryKind.ATTRIBUTE_RANGE, None
    ) is not None and not mix:
        return fail(
            "mix is empty after dropping attribute_range (the graph "
            "has no attributes)"
        )
    budget = (
        int(args.cache_budget_mb * 1024 * 1024)
        if args.cache_budget_mb is not None
        else None
    )
    deadline_seconds = (
        args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
    )
    if args.worker_sweep is not None and args.executor != "process":
        return fail("--worker-sweep requires --executor process")
    if args.verify_bulk_equivalence and not args.live:
        return fail("--verify-bulk-equivalence requires --live")
    if args.live_rate is not None and not args.live:
        return fail("--live-rate requires --live")
    if args.live:
        if args.live_rate is not None and args.live_rate <= 0:
            return fail("--live-rate must be positive")
        if args.executor == "process":
            return fail("--live supports --executor serial or thread")
        if args.worker_sweep is not None:
            return fail("--worker-sweep is not supported with --live")
        if args.verify_single_process:
            return fail(
                "--verify-single-process is not supported with --live "
                "(use --verify-bulk-equivalence)"
            )
        if args.compare_per_query:
            return fail("--compare-per-query is not supported with --live")
        return _bench_queries_live(
            args, graph, mix, budget, deadline_seconds, fail
        )

    def make_service(num_workers=None):
        if args.executor == "process":
            from repro.serving import ProcessQueryService

            return ProcessQueryService(
                graph,
                num_workers=num_workers or args.workers or 2,
                cache_memory_budget_bytes=budget,
                deadline_seconds=deadline_seconds,
                max_pending=args.max_pending,
            )
        return QueryService(
            graph,
            executor=args.executor,
            max_workers=args.workers,
            cache_memory_budget_bytes=budget,
            deadline_seconds=deadline_seconds,
            max_pending=args.max_pending,
        )

    try:
        config = WorkloadConfig(
            num_queries=args.num_queries, mix=mix, seed=args.seed
        )
        service = make_service()
    except ValueError as exc:
        return fail(str(exc))
    with service:
        try:
            # workload/config validation (weights, NaN probabilities,
            # batch size, cache budget) surfaces here as ValueError
            report, results = service.run_workload(
                config, batch_size=args.batch_size
            )
        except ValueError as exc:
            return fail(str(exc))
        stats = service.plan_cache_stats()
        payload = {
            "status": "ok",
            "graph": str(graph.statistics()),
            "queries": report.total_queries,
            "seconds": report.total_seconds,
            "qps": report.throughput(),
            "batch_size": args.batch_size,
            "executor": args.executor,
            "per_kind": {
                kind: {
                    "count": report.count_by_kind[kind],
                    "mean_latency_s": report.latency_by_kind[kind],
                    "mean_result_size": report.mean_result_size[kind],
                }
                for kind in sorted(report.count_by_kind)
            },
            "plan_cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "resident_bytes": stats.resident_bytes,
                "bypasses": stats.bypasses,
                "hit_rate": stats.hit_rate,
            },
            "failed_requests": sum(1 for r in results if not r.ok),
        }
        if args.executor == "process":
            payload["workers"] = service.num_workers
            payload["worker_stats"] = service.worker_stats()
            payload["shared_memory"] = service.shared_memory_stats()
        if args.compare_per_query:
            # rerun the identical deterministic query sequence through
            # per-query dispatch (a local engine for the process tier)
            from repro.workloads import WorkloadGenerator

            if args.executor == "process":
                from repro.workloads.engine import GraphQueryEngine

                engine = GraphQueryEngine(graph)
            else:
                engine = service.engine
            queries = WorkloadGenerator(graph, config).generate()
            baseline = execute_workload(engine, queries)
            payload["per_query_qps"] = baseline.throughput()
            payload["batched_speedup"] = (
                baseline.total_seconds / report.total_seconds
                if report.total_seconds
                else float("inf")
            )
        if args.verify_single_process:
            import numpy as np

            with QueryService(graph, executor="serial") as reference:
                ref_report, ref_results = reference.run_workload(
                    config, batch_size=args.batch_size
                )
            if len(results) != len(ref_results):
                return fail(
                    "verification failed: request counts differ "
                    f"({len(results)} vs {len(ref_results)})"
                )
            for i, (got, want) in enumerate(zip(results, ref_results)):
                if not (got.ok and want.ok):
                    return fail(
                        f"verification failed: request {i} did not "
                        "complete on both tiers "
                        f"({got.error or 'ok'} vs {want.error or 'ok'})"
                    )
                if not np.array_equal(
                    got.cardinalities, want.cardinalities
                ):
                    return fail(
                        f"verification failed: request {i} results "
                        "differ from single-process serving"
                    )
            payload["verified_single_process"] = True
            payload["single_process_qps"] = ref_report.throughput()
    if args.worker_sweep is not None:
        try:
            counts = sorted(
                {int(w) for w in args.worker_sweep.split(",") if w.strip()}
            )
            if not counts or any(c < 1 for c in counts):
                raise ValueError
        except ValueError:
            return fail(
                "--worker-sweep must be comma-separated positive ints"
            )
        scaling = []
        for count in counts:
            try:
                with make_service(num_workers=count) as swept:
                    sweep_report, sweep_results = swept.run_workload(
                        config, batch_size=args.batch_size
                    )
            except ValueError as exc:
                return fail(str(exc))
            scaling.append(
                {
                    "workers": count,
                    "qps": sweep_report.throughput(),
                    "seconds": sweep_report.total_seconds,
                    "failed_requests": sum(
                        1 for r in sweep_results if not r.ok
                    ),
                }
            )
        payload["scaling"] = scaling
    if args.json:
        print(json.dumps(payload))
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_compare(args) -> int:
    from repro.metrics import attribute_jsd, privacy_report, structure_metric_table

    try:
        original = graph_io.load(args.original)
        synthetic = graph_io.load(args.synthetic)
    except Exception as exc:
        if args.json:
            print(json.dumps({"status": "error", "error": str(exc)}))
        else:
            print(f"compare: cannot load graphs: {exc}", file=sys.stderr)
        return 2
    report = {
        "fidelity": structure_metric_table(original, synthetic),
        "privacy": privacy_report(original, synthetic),
    }
    if original.num_attributes:
        report["fidelity"]["attr_jsd"] = attribute_jsd(original, synthetic)
    if args.json:
        print(json.dumps({"status": "ok", **_jsonable(report)}))
    else:
        print(json.dumps(_jsonable(report), indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "list-datasets":
        for name in list_datasets():
            print(name)
        return 0

    if args.command == "list-generators":
        from repro import api

        for name in api.list_generators():
            entry = api.generator_entry(name)
            print(f"{name:<22} {entry.description}")
        return 0

    if args.command == "train":
        return _cmd_train(args)

    if args.command == "generate":
        return _cmd_generate(args)

    if args.command == "run":
        return _cmd_run(args)

    if args.command == "ingest":
        budget = (
            int(args.memory_budget_mb * 1024 * 1024)
            if args.memory_budget_mb is not None
            else None
        )
        graph = graph_io.load(
            args.events,
            memory_budget_bytes=budget,
            checkpoint_path=args.checkpoint,
            checkpoint_every_events=args.checkpoint_every,
        )
        graph_io.save(graph, args.out)
        print(f"ingested {graph} -> {args.out}")
        return 0

    if args.command == "experiment":
        result = _EXPERIMENTS[args.name](args)
        print(json.dumps(_jsonable(result), indent=2))
        return 0

    if args.command == "bench-queries":
        return _cmd_bench_queries(args)

    if args.command == "compare":
        return _cmd_compare(args)

    return 1  # pragma: no cover - argparse enforces choices


def _jsonable(value):
    # the one JSON-coercion helper, shared with RunResult.to_dict
    from repro.api.pipeline import _jsonable as coerce

    return coerce(value)


if __name__ == "__main__":
    sys.exit(main())
