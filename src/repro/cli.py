"""Command-line interface, built on the :mod:`repro.api` facade.

Any registered generator can be trained, saved, loaded and served by
name; ``run`` executes a whole dataset × generator × metrics pipeline
from one JSON config.  ``verify-queries`` replays a workload mix through
a serving tier and checks every served batch against per-query
dispatch on a bulk-built store of its epoch (exit 2 on any mismatch).

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
    python -m repro.cli verify-queries --graph /tmp/graph.npz \
        --num-queries 2000 --batch-size 256 --executor process --json
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

    vq = sub.add_parser(
        "verify-queries",
        help="replay a workload query mix through a serving tier and "
        "check every served batch against per-query dispatch on a "
        "bulk-built store (see docs/workloads.md)",
    )
    vq.add_argument("--graph", required=True,
                    help="graph archive written by graph.io.save")
    vq.add_argument("--num-queries", type=int, default=1000)
    vq.add_argument("--batch-size", type=int, default=256)
    vq.add_argument(
        "--executor", choices=("serial", "thread", "process"),
        default="thread",
        help="'serial'/'thread' run the single-process QueryService; "
        "'process' runs the multi-process serving tier "
        "(ProcessQueryService: shared-memory store segments + "
        "request router, see docs/workloads.md)",
    )
    vq.add_argument("--workers", type=int, default=None,
                    help="thread-pool width (default: cpu count), or "
                    "worker-process count for --executor process "
                    "(default: 2)")
    vq.add_argument(
        "--cache-budget-mb", type=float, default=None,
        help="bound on the snapshot-plan cache (default: unbounded)",
    )
    vq.add_argument("--seed", type=int, default=0)
    vq.add_argument(
        "--mix", default=None,
        help="JSON object of query-kind weights (default: the "
        "point-lookup-heavy serving mix)",
    )
    vq.add_argument(
        "--live", action="store_true",
        help="replay the archive's events through a LiveStoreBuilder "
        "on a writer thread and serve the workload with "
        "LiveQueryService while ingestion runs; each batch is checked "
        "at the epoch it was pinned to (serial/thread executors only, "
        "see docs/workloads.md)",
    )
    vq.add_argument(
        "--live-rate", type=float, default=None,
        help="target sustained ingest rate in events/s for --live "
        "(default: unthrottled)",
    )
    vq.add_argument(
        "--json", action="store_true",
        help="machine-readable output: single-line JSON with a status "
        "field (load failures and mismatches exit 2 either way)",
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


def _serve(args, graph, requests, budget):
    """One ``run_batch`` over the whole graph: ``(epoch, request,
    result)`` triples, all at the final epoch, and the cache counters."""
    if args.executor == "process":
        from repro.serving import ProcessQueryService

        service = ProcessQueryService(
            graph,
            num_workers=args.workers or 2,
            cache_memory_budget_bytes=budget,
        )
    else:
        from repro.workloads import QueryService

        service = QueryService(
            graph,
            executor=args.executor,
            max_workers=args.workers,
            cache_memory_budget_bytes=budget,
        )
    with service:
        results = service.run_batch(requests)
        epoch = graph.num_timesteps
        served = [(epoch, r, res) for r, res in zip(requests, results)]
        return served, service.plan_cache_stats()


def _serve_live(args, graph, requests, budget):
    """Serve the requests while the archive's events are ingested.

    A writer thread replays the archive's event columns step by step
    through a :class:`LiveStoreBuilder` (sealing each step, paced by
    ``--live-rate``) while a :class:`LiveQueryService` serves every
    request once mid-ingest, then once more at the final epoch.  Returns
    ``(epoch, request, result)`` triples, each at its pinned epoch, and
    the plan-cache counters.
    """
    import threading
    import time

    from repro.graph.live import LiveStoreBuilder
    from repro.workloads import LiveQueryService

    store = graph.store
    builder = LiveStoreBuilder(
        store.num_nodes, store.num_timesteps, attributes=store.attributes
    )
    writer_error = []

    def write():
        start = time.perf_counter()
        try:
            for step in range(store.num_timesteps):
                lo, hi = store.offsets[step], store.offsets[step + 1]
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

    served = []
    with LiveQueryService(
        builder,
        executor=args.executor,
        max_workers=args.workers,
        cache_memory_budget_bytes=budget,
    ) as service:
        writer = threading.Thread(target=write, name="live-ingest")
        writer.start()
        try:
            for request in requests:
                epoch, results = service.run_batch([request])
                served.append((epoch, request, results[0]))
        finally:
            writer.join()
        if writer_error:
            raise RuntimeError(f"ingest writer failed: {writer_error[0]}")
        service.refresh()
        for request in requests:
            epoch, results = service.run_batch([request], refresh=False)
            served.append((epoch, request, results[0]))
        return served, service.plan_cache_stats()


def _cmd_verify_queries(args) -> int:
    import dataclasses

    import numpy as np

    from repro.graph.dynamic import DynamicAttributedGraph
    from repro.graph.store import TemporalEdgeStore
    from repro.workloads import (
        GraphQueryEngine,
        QueryKind,
        QueryRequest,
        WorkloadConfig,
        WorkloadGenerator,
        serving_mix,
    )
    from repro.workloads.generator import run_queries_per_query

    def fail(message: str) -> int:
        if args.json:
            print(json.dumps({"status": "error", "error": message}))
        else:
            print(f"verify-queries: {message}", file=sys.stderr)
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
    if args.live_rate is not None and not (args.live and args.live_rate > 0):
        return fail("--live-rate must be a positive rate with --live")
    if args.live and args.executor == "process":
        return fail("--live supports --executor serial or thread")
    serve = _serve_live if args.live else _serve
    try:
        if args.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # workload/config validation (weights, NaN probabilities, cache
        # budget) surfaces here as ValueError
        queries = WorkloadGenerator(graph, WorkloadConfig(
            num_queries=args.num_queries, mix=mix, seed=args.seed
        )).generate()
        requests = [
            QueryRequest(queries[i:i + args.batch_size])
            for i in range(0, len(queries), args.batch_size)
        ]
        served, stats = serve(args, graph, requests, budget)
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))

    # the one reference: per-query dispatch on a bulk-built store of
    # each batch's epoch prefix (the whole graph outside --live)
    store = graph.store
    references = {}
    counts, sizes = {}, {}
    for epoch, request, result in served:
        if not result.ok:
            return fail(
                f"a request pinned at epoch {epoch} failed: {result.error}"
            )
        engine = references.get(epoch)
        if engine is None:
            end = int(store.offsets[epoch])
            engine = references[epoch] = GraphQueryEngine(
                DynamicAttributedGraph.from_store(TemporalEdgeStore(
                    store.num_nodes,
                    store.num_timesteps,
                    store.src[:end].copy(),
                    store.dst[:end].copy(),
                    store.t[:end].copy(),
                    store.attributes,
                ))
            )
        expected, _ = run_queries_per_query(engine, request.queries)
        if not np.array_equal(result.cardinalities, expected):
            return fail(
                f"verification failed: a batch pinned at epoch {epoch} "
                "diverged from per-query dispatch on the bulk-built "
                "store of that epoch's event prefix"
            )
        for q, size in zip(request.queries, expected):
            counts[q.kind.value] = counts.get(q.kind.value, 0) + 1
            sizes[q.kind.value] = sizes.get(q.kind.value, 0) + size

    payload = {
        "status": "ok",
        "graph": str(graph.statistics()),
        "mode": "live" if args.live else args.executor,
        "queries": len(queries),
        "batch_size": args.batch_size,
        "verified_batches": len(served),
        "epochs_served": sorted(references),
        "per_kind": {
            kind: {
                "count": counts[kind],
                "mean_result_size": sizes[kind] / counts[kind],
            }
            for kind in sorted(counts)
        },
        "plan_cache": {
            **dataclasses.asdict(stats), "hit_rate": stats.hit_rate
        },
    }
    print(json.dumps(payload) if args.json else json.dumps(payload, indent=2))
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

    if args.command == "verify-queries":
        return _cmd_verify_queries(args)

    if args.command == "compare":
        return _cmd_compare(args)

    return 1  # pragma: no cover - argparse enforces choices


def _jsonable(value):
    # the one JSON-coercion helper, shared with RunResult.to_dict
    from repro.api.pipeline import _jsonable as coerce

    return coerce(value)


if __name__ == "__main__":
    sys.exit(main())
