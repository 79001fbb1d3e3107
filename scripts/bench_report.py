#!/usr/bin/env python
"""Performance trajectory report: kernels + paper-scale experiments.

Runs (a) micro-benchmarks of every vectorized hot-path kernel against
its ``_reference_*`` Python implementation and (b) the reduced-scale
Fig. 9 / Table III / Table IV timing experiments, then writes the
results to ``BENCH_perf.json`` so successive PRs have a perf trajectory
to compare against (schema documented in ``benchmarks/README.md``).

Usage::

    PYTHONPATH=src python scripts/bench_report.py             # full run
    PYTHONPATH=src python scripts/bench_report.py --quick     # CI-sized
    PYTHONPATH=src python scripts/bench_report.py --skip-macro

The kernel section also verifies parity (vectorized output == reference
output) before timing, so a kernel can never get "faster" by drifting.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.autodiff.tensor import Tensor
from repro.baselines.walks import TemporalWalkSampler
from repro.core.generator import MixBernoulliSampler
from repro.graph import properties as graph_props
from repro.graph.dynamic import DynamicAttributedGraph
from repro.graph.sparse import SparseDirectedGraph
from repro.graph.store import TemporalEdgeStore
from repro.graph.temporal import TemporalEdgeList
from repro.profiling import best_of as _best_of, profiler


def _random_sparse_graph(
    n: int, e: int, seed: int
) -> SparseDirectedGraph:
    rng = np.random.default_rng(seed)
    return SparseDirectedGraph(n, rng.integers(0, n, size=(e, 2)))


def _random_stream(n: int, e: int, t_len: int, seed: int) -> TemporalEdgeList:
    rng = np.random.default_rng(seed)
    tel = TemporalEdgeList(n, t_len)
    for u, v, t in zip(
        rng.integers(0, n, size=e),
        rng.integers(0, n, size=e),
        rng.integers(0, t_len, size=e),
    ):
        if u != v:
            tel.add(int(u), int(v), int(t))
    return tel


def bench_kernels(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Vectorized-vs-reference timings for every hot-path kernel."""
    # Table-IV generation scale: the paper sweeps temporal edge counts;
    # our reduced reproduction's largest generation setting lands near
    # N≈1200 / E≈7000 for the metric kernels and N≈160 decode rows.
    n_graph, e_graph = (400, 2400) if quick else (1200, 7200)
    n_decode = 60 if quick else 160
    n_walks, walk_len = (200, 8) if quick else (1500, 12)
    out: Dict[str, Dict[str, float]] = {}

    g = _random_sparse_graph(n_graph, e_graph, seed=1)
    cases: List[Tuple[str, Callable[[], object], Callable[[], object]]] = [
        (
            "sparse.clustering_coefficients",
            g.clustering_coefficients,
            g._reference_clustering_coefficients,
        ),
        (
            "sparse.connected_component_sizes",
            g.connected_component_sizes,
            g._reference_connected_component_sizes,
        ),
        ("sparse.wedge_count", g.wedge_count, g._reference_wedge_count),
    ]
    for name, fast, ref in cases:
        fast_out, ref_out = fast(), ref()
        if isinstance(fast_out, np.ndarray):
            assert np.allclose(fast_out, ref_out), f"{name} parity violated"
        else:
            assert fast_out == ref_out, f"{name} parity violated"
        out[name] = {
            "n": n_graph,
            "edges": g.num_edges,
            "reference_s": _best_of(ref, repeats),
            "vectorized_s": _best_of(fast, repeats),
        }

    # fused MixBernoulli decode (structure generation hot path)
    rng = np.random.default_rng(2)
    sampler = MixBernoulliSampler(36, num_components=3, rng=rng)
    s = Tensor(rng.normal(size=(n_decode, 36)))
    assert np.array_equal(
        sampler.sample(s, np.random.default_rng(5)),
        sampler._reference_sample(s, np.random.default_rng(5)),
    ), "decode parity violated"
    out["generator.mixbernoulli_sample"] = {
        "n": n_decode,
        "edges": n_decode * n_decode,
        "reference_s": _best_of(
            lambda: sampler._reference_sample(s, np.random.default_rng(5)),
            repeats,
        ),
        "vectorized_s": _best_of(
            lambda: sampler.sample(s, np.random.default_rng(5)), repeats
        ),
    }

    # batched temporal walk sampling (Fig. 9 baseline hot path)
    stream = _random_stream(max(n_graph // 4, 20), e_graph, 10, seed=3)
    sam = TemporalWalkSampler(stream, time_window=2, seed=0)

    def scalar_walks() -> list:
        walks = []
        for _ in range(n_walks):
            w = sam.sample_walk(walk_len)
            if w and len(w) >= 2:
                walks.append(w)
        return walks

    out["walks.sample_walks"] = {
        "n": n_walks,
        "edges": len(list(stream)),
        "reference_s": _best_of(scalar_walks, repeats),
        "vectorized_s": _best_of(
            lambda: sam.sample_walks(n_walks, walk_len), repeats
        ),
    }

    out.update(bench_training(quick, repeats))
    out.update(bench_store(quick, repeats))
    out.update(bench_generation(quick, repeats))
    out.update(bench_ingest(quick, repeats))
    out.update(bench_api(quick, repeats))
    out.update(bench_workloads(quick, repeats))
    out.update(bench_serving(quick, repeats))
    out.update(bench_live(quick, repeats))
    out.update(bench_reliability(quick, repeats))

    for entry in out.values():
        if "reference_s" not in entry:  # training.fit: no reference twin
            continue
        entry["speedup"] = (
            entry["reference_s"] / entry["vectorized_s"]
            if entry["vectorized_s"] > 0
            else float("inf")
        )
    return out


def bench_training(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Per-epoch training time of every net-training generator.

    One ``training.fit`` entry on the email twin.  For VRDAG the
    per-epoch time is the profiled ``trainer.forward`` +
    ``trainer.backward`` seconds (the autodiff work; optimizer and
    calibration are excluded); for the baselines it is fit wall-clock
    over their epoch count.  ``vectorized_s`` is the VRDAG per-epoch
    time.  The entry has no ``reference_s``: the closure engine it was
    once compared against is retired, and the gated training contract
    is the perfbench ``fit`` workload (``BENCHMARK.json``).
    """
    from repro.baselines.gran import GRAN
    from repro.baselines.tggan import TGGAN
    from repro.baselines.tigger import TIGGER
    from repro.core import TrainConfig, VRDAG, VRDAGConfig, VRDAGTrainer
    from repro.datasets import load_dataset

    scale = 0.03 if quick else 0.1
    epochs = 2
    graph = load_dataset("email", scale=scale, seed=0)

    # -- VRDAG: profiled forward+backward per epoch
    cfg = VRDAGConfig(
        num_nodes=graph.num_nodes,
        num_attributes=graph.num_attributes,
        hidden_dim=24, latent_dim=12, encode_dim=24,
        mixture_components=3, seed=7,
    )
    trainer = VRDAGTrainer(VRDAG(cfg), TrainConfig(epochs=epochs))
    was_enabled = profiler.enabled
    profiler.reset()
    profiler.enabled = True
    try:
        trainer.fit(graph)
        timers = profiler.snapshot()["timers"]
    finally:
        profiler.enabled = was_enabled
        profiler.reset()
    vrdag_epoch_s = (
        timers["trainer.forward"]["seconds"]
        + timers["trainer.backward"]["seconds"]
    ) / epochs
    generators: Dict[str, Dict[str, float]] = {
        "VRDAG": {"epoch_s": vrdag_epoch_s}
    }

    # -- net-training baselines: fit wall-clock over epoch count
    cases = [
        ("GRAN", lambda: GRAN(epochs=10, seed=4), 10),
        ("TIGGER", lambda: TIGGER(epochs=2, walks_per_edge=0.5, seed=4), 2),
        (
            "TGGAN",
            lambda: TGGAN(adversarial_rounds=2, disc_epochs=10, seed=4),
            2 * 10,
        ),
    ]
    for name, factory, n_epochs in cases:
        wall = _best_of(lambda: factory().fit(graph), repeats)
        generators[name] = {"epoch_s": wall / n_epochs}

    return {
        "training.fit": {
            "n": graph.num_nodes,
            "edges": graph.num_temporal_edges,
            "epochs": epochs,
            "vectorized_s": vrdag_epoch_s,
            "generators": generators,
        }
    }


def bench_store(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Columnar store vs dense representation on a Table-I-shaped graph.

    Three entries track the refactor's win: canonical *construction*
    (columnar store build vs dense tensor ingestion), *snapshot
    iteration* (per-timestep degree/edge-count queries through the
    store views vs dense row sums), and *metric evaluation* (the CSR
    structure-summary kernels vs their dense references).
    """
    n, m, t_len = (200, 2400, 8) if quick else (600, 7200, 10)
    rng = np.random.default_rng(7)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    t = np.sort(rng.integers(0, t_len, size=m))
    keep = src != dst
    src, dst, t = src[keep], dst[keep], t[keep]
    out: Dict[str, Dict[str, float]] = {}

    # -- construction: columnar canonicalization vs dense-stack ingest
    def build_store() -> DynamicAttributedGraph:
        return DynamicAttributedGraph.from_store(
            TemporalEdgeStore(n, t_len, src, dst, t)
        )

    def build_dense() -> DynamicAttributedGraph:
        tensor = np.zeros((t_len, n, n))
        tensor[t, src, dst] = 1.0
        return DynamicAttributedGraph.from_tensors(tensor)

    store_graph = build_store()
    dense_graph = build_dense()
    assert np.array_equal(
        store_graph.adjacency_tensor(), dense_graph.adjacency_tensor()
    ), "store construction parity violated"
    out["store.construction"] = {
        "n": n,
        "edges": store_graph.num_temporal_edges,
        "reference_s": _best_of(build_dense, repeats),
        "vectorized_s": _best_of(build_store, repeats),
    }

    # -- snapshot iteration: store views vs dense row sums
    def iterate_store() -> np.ndarray:
        degs = [s.degrees() for s in store_graph]
        return np.stack(degs)

    def iterate_dense() -> np.ndarray:
        degs = [
            s.adjacency.sum(axis=0) + s.adjacency.sum(axis=1)
            for s in dense_graph
        ]
        return np.stack(degs)

    assert np.allclose(iterate_store(), iterate_dense()), (
        "snapshot iteration parity violated"
    )
    out["store.snapshot_iteration"] = {
        "n": n,
        "edges": store_graph.num_temporal_edges,
        "reference_s": _best_of(iterate_dense, repeats),
        "vectorized_s": _best_of(iterate_store, repeats),
    }

    # -- metric eval: CSR structure summary vs dense reference kernels
    def metrics_store() -> list:
        # fresh snapshot views per call so the timing includes CSR
        # construction, not just warm-cache kernel hits
        graph = DynamicAttributedGraph.from_store(store_graph.store)
        return [graph_props.structure_summary(s) for s in graph]

    def metrics_dense() -> list:
        return [
            graph_props._reference_structure_summary(s) for s in dense_graph
        ]

    for got, ref in zip(metrics_store(), metrics_dense()):
        for key, val in ref.items():
            assert (np.isnan(val) and np.isnan(got[key])) or np.isclose(
                got[key], val
            ), f"store metric parity violated on {key}"
    out["store.metric_eval"] = {
        "n": n,
        "edges": store_graph.num_temporal_edges,
        "reference_s": _best_of(metrics_dense, repeats),
        "vectorized_s": _best_of(metrics_store, repeats),
    }
    return out


def bench_generation(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Sharded structure decode: scaling-vs-shards at generation scale.

    One ``generation.sharded`` entry: ``reference_s`` is the monolithic
    fused ``sample_edges`` decode, ``vectorized_s`` the best sharded
    wall-clock across shard counts, and the ``shards`` sub-dict records
    the full curve — serial wall-clock plus the *critical path* (the
    slowest single shard, i.e. the parallel wall-clock an executor with
    ``>= n_shards`` free cores approaches).  On single-core hosts
    serial wall stays flat while the critical path shrinks ~1/k; on
    multi-core hosts thread/process wall-clock tracks the critical
    path.  Parity with the monolithic decode is asserted for every
    shard count before timing.
    """
    from repro.generation import ShardPlan, ShardedStructureDecoder
    from repro.generation.decode import (
        PlainHead,
        ShardTask,
        decode_shard,
        prepare_decode,
    )

    n = 400 if quick else 1200
    shard_counts = (1, 2, 4) if quick else (1, 2, 4, 8)
    rng = np.random.default_rng(11)
    sampler = MixBernoulliSampler(36, num_components=3, rng=rng)
    s = Tensor(rng.normal(size=(n, 36)))

    def monolithic():
        return sampler.sample_edges(s, np.random.default_rng(5))

    ref_src, ref_dst = monolithic()
    head = PlainHead.from_mlp(sampler.f_theta)
    alpha, proj, block = prepare_decode(sampler, s)
    state = np.random.default_rng(5).bit_generator.state

    shards_curve: Dict[str, Dict[str, float]] = {}
    for k in shard_counts:
        plan = ShardPlan.balanced(n, k)
        decoder = ShardedStructureDecoder(plan, executor="serial")

        def sharded(decoder=decoder):
            return decoder(sampler, s, np.random.default_rng(5))

        src, dst = sharded()
        assert np.array_equal(src, ref_src) and np.array_equal(
            dst, ref_dst
        ), f"sharded decode parity violated at n_shards={k}"
        critical = max(
            _best_of(
                lambda t=ShardTask(
                    lo, hi, n, sampler.num_components, head, proj,
                    alpha[lo:hi], state, block,
                ): decode_shard(t),
                repeats,
            )
            for lo, hi in plan.ranges()
        )
        shards_curve[str(k)] = {
            "wall_s": _best_of(sharded, repeats),
            "critical_path_s": critical,
        }

    best_wall = min(e["wall_s"] for e in shards_curve.values())
    best_critical = min(e["critical_path_s"] for e in shards_curve.values())
    reference_s = _best_of(monolithic, repeats)
    return {
        "generation.sharded": {
            "n": n,
            "edges": n * n,
            "reference_s": reference_s,
            "vectorized_s": best_wall,
            # `speedup` (reference_s / vectorized_s) compares *serial*
            # sharded wall-clock and hovers near 1 by construction; the
            # decomposition win is the critical path — the slowest
            # single shard, i.e. the parallel wall-clock an executor
            # with enough free cores approaches.  Report it explicitly
            # so the entry cannot be read as "sharding bought nothing".
            "critical_path_s": best_critical,
            "critical_path_speedup": (
                reference_s / best_critical
                if best_critical > 0
                else float("inf")
            ),
            "shards": shards_curve,
        }
    }


def bench_ingest(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Bounded-memory streaming ingestion vs bulk store construction.

    ``reference_s`` is the one-shot canonicalization
    (``TemporalEdgeStore(src, dst, t)``: full-stream lexsort),
    ``vectorized_s`` the chunked :func:`ingest_stream` fold whose
    transient working set is one chunk.  This entry tracks the *cost
    of bounded memory* — the target is parity (speedup ≈ 1), not a
    win; equality of the resulting stores is asserted before timing.
    """
    from repro.graph.streams import ingest_stream

    n, t_len = 600, 10
    m = 60_000 if quick else 240_000
    chunk = 16_384
    rng = np.random.default_rng(13)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    t = rng.integers(0, t_len, size=m)

    def bulk():
        return TemporalEdgeStore(n, t_len, src, dst, t)

    def streaming():
        return ingest_stream((src, dst, t), n, t_len, chunk_events=chunk)

    assert streaming() == bulk(), "streaming ingest parity violated"
    return {
        "ingest.streaming": {
            "n": n,
            "edges": m,
            "reference_s": _best_of(bulk, repeats),
            "vectorized_s": _best_of(streaming, repeats),
            "chunk_events": chunk,
        }
    }


def bench_api(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Facade tax: ``api.Pipeline.run`` vs calling the pieces directly.

    Both sides do identical work (load the twin, fit a small VRDAG,
    generate, score the structure suite); the entry tracks what the
    ``repro.api`` plumbing adds on top.  The facade must stay free:
    the run asserts the overhead under 5% of the direct wall-clock.
    """
    from repro.api import Pipeline, get_generator, smoke_config
    from repro.datasets import load_dataset
    from repro.metrics import structure_metric_table

    dataset, scale, timesteps, seed = "email", 0.012, 3, 1
    config = dict(smoke_config("VRDAG"))

    def direct():
        graph = load_dataset(dataset, scale=scale, seed=0)
        generator = get_generator("VRDAG", seed=seed, **config)
        generator.fit(graph)
        generated = generator.generate(timesteps, seed=seed)
        return structure_metric_table(graph, generated)

    def facade():
        return Pipeline(
            dataset, "VRDAG", ["structure"], generator_config=config,
            scale=scale, timesteps=timesteps, seed=seed,
        ).run().metrics["structure"]

    assert facade() == direct(), "pipeline facade parity violated"
    # the workload includes a (deterministic but allocation-heavy)
    # training run whose single-shot jitter exceeds the 5% budget;
    # best-of >= 5 keeps the comparison about plumbing, not noise
    reps = max(repeats, 5)
    direct_s = _best_of(direct, reps)
    facade_s = _best_of(facade, reps)
    overhead = facade_s / direct_s - 1.0
    # 5% relative budget plus a 20ms absolute allowance: on shared CI
    # runners scheduler jitter alone can move a ~0.2s best-of by more
    # than 5%, and that noise is not facade overhead
    assert facade_s <= direct_s * 1.05 + 0.02, (
        f"api.Pipeline adds {overhead:.1%} wall-clock over direct calls "
        "(budget: 5%)"
    )
    return {
        "api.pipeline_overhead": {
            "n": timesteps,
            "edges": 0,
            "reference_s": direct_s,
            "vectorized_s": facade_s,
            "overhead_fraction": overhead,
        }
    }


def bench_workloads(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Query serving: batched kernels + QueryService vs per-query dispatch.

    Three entries over a Table-I-shaped store-backed graph and a
    point-lookup-heavy serving mix (``serving_mix()``):

    - ``workloads.batched_queries`` — one workload replayed through
      the batched vectorized kernels (``run_queries_batched``) vs the
      per-query dispatch loop.  Result cardinalities are asserted
      bit-identical before timing.
    - ``workloads.service_throughput`` — the same workload served by
      ``QueryService`` request batches; ``vectorized_s`` is the best
      wall-clock across the (executor × pool size × batch size) grid
      and the ``service`` sub-dict records the full queries/sec
      curve.  Batched serving must beat per-query dispatch — the run
      asserts it.
    - ``workloads.batched_traversals`` — the frontier-vectorized BFS
      kernels (``batch_two_hop`` / ``batch_temporal_reach``) vs their
      per-query reference twins, one ``kinds`` sub-dict per traversal
      class.  Parity and zero dense materializations are asserted
      before timing; at full scale each kind must clear a 5x speedup
      floor.
    """
    from repro.graph.store import (
        TemporalEdgeStore,
        track_dense_materializations,
    )
    from repro.workloads import (
        GraphQueryEngine,
        QueryRequest,
        QueryService,
        WorkloadConfig,
        WorkloadGenerator,
        run_queries_batched,
        serving_mix,
    )
    from repro.workloads.generator import _run_query

    n, m, t_len = (200, 2400, 8) if quick else (600, 7200, 10)
    n_q = 500 if quick else 2000
    rng = np.random.default_rng(17)
    store = TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, 2)),
    )
    graph = DynamicAttributedGraph.from_store(store)
    config = WorkloadConfig(num_queries=n_q, mix=serving_mix(), seed=5)
    queries = WorkloadGenerator(graph, config).generate()
    engine = GraphQueryEngine(graph)

    def per_query() -> np.ndarray:
        return np.array([_run_query(engine, q) for q in queries])

    def batched() -> np.ndarray:
        return run_queries_batched(engine, queries)[0]

    with track_dense_materializations() as materialized:
        ref_cards = per_query()  # also warms the plan cache
        fast_cards = batched()
    assert np.array_equal(ref_cards, fast_cards), (
        "batched query parity violated"
    )
    assert materialized() == 0, "serving path touched a dense adjacency"
    out: Dict[str, Dict[str, float]] = {
        "workloads.batched_queries": {
            "n": n,
            "edges": m,
            "num_queries": n_q,
            "reference_s": _best_of(per_query, repeats),
            "vectorized_s": _best_of(batched, repeats),
        }
    }

    # -- concurrent serving: qps across the (executor, workers, batch) grid
    grid = [("serial", 1), ("thread", 2), ("thread", 4)]
    batch_sizes = (64, 256) if quick else (64, 256, 1024)
    curve: Dict[str, Dict[str, float]] = {}
    for executor, workers in grid:
        with QueryService(engine, executor=executor,
                          max_workers=workers) as service:
            for batch_size in batch_sizes:
                requests = [
                    QueryRequest(queries[i:i + batch_size])
                    for i in range(0, len(queries), batch_size)
                ]
                service.run_batch(requests)  # warm pool + plans
                wall = _best_of(lambda: service.run_batch(requests), repeats)
                curve[f"{executor}:w{workers}:b{batch_size}"] = {
                    "wall_s": wall,
                    "qps": n_q / wall if wall else float("inf"),
                }
    per_query_s = out["workloads.batched_queries"]["reference_s"]
    best_wall = min(entry["wall_s"] for entry in curve.values())
    assert best_wall < per_query_s, (
        f"batched serving ({best_wall:.4f}s) failed to beat per-query "
        f"dispatch ({per_query_s:.4f}s)"
    )
    out["workloads.service_throughput"] = {
        "n": n,
        "edges": m,
        "num_queries": n_q,
        "reference_s": per_query_s,
        "vectorized_s": best_wall,
        "service": curve,
    }

    # -- frontier-vectorized traversals: batched BFS vs per-query BFS
    nodes = rng.integers(0, n, size=n_q)
    hop_ts = rng.integers(0, t_len, size=n_q)
    src = rng.integers(0, n, size=n_q)
    dst = rng.integers(0, n, size=n_q)
    t0 = rng.integers(0, t_len, size=n_q)
    t1 = np.minimum(t0 + rng.integers(0, t_len, size=n_q), t_len - 1)
    per_kind = {
        "two_hop": (
            lambda: engine.batch_two_hop(nodes, hop_ts),
            lambda: engine._reference_batch_two_hop(nodes, hop_ts),
        ),
        "temporal_reach": (
            lambda: engine.batch_temporal_reach(src, dst, t0, t1),
            lambda: engine._reference_batch_temporal_reach(src, dst, t0, t1),
        ),
    }
    kinds: Dict[str, Dict[str, float]] = {}
    for name, (fast, ref) in per_kind.items():
        with track_dense_materializations() as materialized:
            fast_out = fast()
            ref_out = ref()
        assert np.array_equal(fast_out, ref_out), (
            f"batched {name} parity violated"
        )
        assert materialized() == 0, (
            f"batched {name} touched a dense adjacency"
        )
        fast_s = _best_of(fast, repeats)
        ref_s = _best_of(ref, repeats)
        speedup = ref_s / fast_s if fast_s else float("inf")
        # the headline claim: frontier-vectorized BFS answers whole
        # batches >= 5x faster than the per-query loop at bench scale
        # (the quick CI shape only has to stay ahead, not 5x ahead)
        floor = 1.0 if quick else 5.0
        assert speedup >= floor, (
            f"batched {name} speedup {speedup:.1f}x below {floor:.0f}x floor"
        )
        kinds[name] = {
            "reference_s": ref_s,
            "vectorized_s": fast_s,
            "speedup": speedup,
        }
    out["workloads.batched_traversals"] = {
        "n": n,
        "edges": m,
        "num_queries": n_q,
        "reference_s": sum(k["reference_s"] for k in kinds.values()),
        "vectorized_s": sum(k["vectorized_s"] for k in kinds.values()),
        "kinds": kinds,
    }
    return out


def bench_serving(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Multi-process serving tier: worker-count scaling vs one process.

    One ``workloads.multiprocess_throughput`` entry: ``reference_s``
    serves a Table-I-shaped serving-mix workload through the
    single-process serial ``QueryService``; ``vectorized_s`` is the
    best wall-clock of ``ProcessQueryService`` across worker counts
    (1, 2, 4), with the full queries/sec curve under ``workers``.
    Requests travel in the tier's native columnar form, so the timing
    measures the shared-memory + pipe serving path, not per-query
    Python.

    Before timing, every worker count is checked against the
    single-process results (bit-identical cardinalities) and every
    worker must report ``resident_copy_bytes == 0`` — the
    one-resident-copy invariant of the shared store segment.

    Scaling is hardware-bound: the ``>= 2x at 4 workers`` target needs
    at least 4 usable cores.  The entry records ``cpu_count`` and sets
    ``hardware_limited`` when the host cannot express the parallelism;
    on capable hosts the run *asserts* the target.
    """
    import os

    from repro.serving import ProcessQueryService, encode_queries
    from repro.workloads import (
        QueryRequest,
        QueryService,
        WorkloadConfig,
        WorkloadGenerator,
        serving_mix,
    )

    n, m, t_len = (200, 2400, 8) if quick else (600, 7200, 10)
    n_q = 4000 if quick else 40_000
    batch = 2048
    worker_counts = (1, 2, 4)
    rng = np.random.default_rng(17)
    store = TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, 2)),
    )
    graph = DynamicAttributedGraph.from_store(store)
    config = WorkloadConfig(num_queries=n_q, mix=serving_mix(), seed=17)
    queries = WorkloadGenerator(graph, config).generate()
    chunks = [queries[i:i + batch] for i in range(0, len(queries), batch)]
    columnar = [encode_queries(c) for c in chunks]
    plain = [QueryRequest(c) for c in chunks]

    with QueryService(graph, executor="serial") as single:
        ref_results = single.run_batch(plain)  # also warms the plan cache
        assert all(r.ok for r in ref_results)
        single_s = _best_of(lambda: single.run_batch(plain), repeats)
    ref_cards = [r.cardinalities for r in ref_results]

    workers_curve: Dict[str, Dict[str, float]] = {}
    for k in worker_counts:
        with ProcessQueryService(graph, num_workers=k) as tier:
            results = tier.run_batch(columnar)  # warm caches + pipes
            assert all(r.ok for r in results)
            for got, want in zip(results, ref_cards):
                assert np.array_equal(got.cardinalities, want), (
                    f"multiprocess serving parity violated at {k} workers"
                )
            stats = tier.worker_stats()
            assert len(stats) == k and all(
                s["resident_copy_bytes"] == 0 for s in stats
            ), "worker holds a resident store copy"
            wall = _best_of(lambda: tier.run_batch(columnar), repeats)
        workers_curve[str(k)] = {
            "wall_s": wall,
            "qps": n_q / wall if wall else float("inf"),
        }

    best_wall = min(e["wall_s"] for e in workers_curve.values())
    speedup_at_4 = single_s / workers_curve["4"]["wall_s"]
    cpu_count = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity"
    ) else (os.cpu_count() or 1)
    hardware_limited = cpu_count < 4
    meets_target = speedup_at_4 >= 2.0
    assert meets_target or hardware_limited, (
        f"multiprocess serving reached only {speedup_at_4:.2f}x at 4 "
        f"workers on {cpu_count} cores (target: 2x)"
    )
    return {
        "workloads.multiprocess_throughput": {
            "n": n,
            "edges": m,
            "num_queries": n_q,
            "reference_s": single_s,
            "vectorized_s": best_wall,
            "single_process_qps": n_q / single_s if single_s else float("inf"),
            "workers": workers_curve,
            "speedup_at_4": speedup_at_4,
            "cpu_count": cpu_count,
            "hardware_limited": hardware_limited,
            "meets_2x_target": meets_target,
        }
    }


def bench_live(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Live serving: query-while-ingesting vs frozen-snapshot serving.

    One ``workloads.live_serving`` entry over a Table-I-shaped graph
    and the serving mix: ``reference_s`` is the per-batch p50 latency
    of a frozen serial ``QueryService``; ``vectorized_s`` the per-batch
    p50 of a ``LiveQueryService`` at the final epoch (identical work,
    so the delta is the epoch-pinning machinery).  The ``rate_curve``
    sub-dict records, per target ingest rate, the achieved sustained
    rate and the mid-ingest batch latencies while a writer thread is
    sealing timesteps concurrently.

    Three claims are asserted before the entry is written: sustained
    ingest stays above 100k events/s (pure replay, no pacing), every
    final-epoch result is bit-identical to frozen serving, each
    snapshot's edge columns own zero bytes
    (:func:`~repro.graph.live.snapshot_owned_bytes` — prefix views,
    not copies), and the live p50 stays within 2x of frozen (plus a
    5ms scheduler-jitter allowance).
    """
    import threading

    from repro.graph.live import LiveStoreBuilder, snapshot_owned_bytes
    from repro.workloads import (
        LiveQueryService,
        QueryRequest,
        QueryService,
        WorkloadConfig,
        WorkloadGenerator,
        serving_mix,
    )

    n, m, t_len = (200, 2400, 8) if quick else (600, 7200, 10)
    n_q = 500 if quick else 2000
    batch = 64
    rng = np.random.default_rng(23)
    store = TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, 2)),
    )
    graph = DynamicAttributedGraph.from_store(store)
    offsets = store.offsets
    config = WorkloadConfig(num_queries=n_q, mix=serving_mix(), seed=23)
    queries = WorkloadGenerator(graph, config).generate()
    requests = [
        QueryRequest(queries[i:i + batch])
        for i in range(0, len(queries), batch)
    ]

    def replay_step(builder: LiveStoreBuilder, step: int) -> None:
        lo, hi = int(offsets[step]), int(offsets[step + 1])
        builder.extend(store.src[lo:hi], store.dst[lo:hi], store.t[lo:hi])

    # -- sustained ingest rate: full unpaced replay, extend + seal
    def ingest_only() -> LiveStoreBuilder:
        builder = LiveStoreBuilder(n, t_len, attributes=store.attributes)
        for step in range(t_len):
            replay_step(builder, step)
            builder.seal_step()
        return builder

    assert ingest_only().freeze() == store, "live replay parity violated"
    ingest_s = _best_of(ingest_only, repeats)
    ingest_rate = store.num_edges / ingest_s if ingest_s else float("inf")
    assert ingest_rate >= 100_000, (
        f"live ingest sustained only {ingest_rate:,.0f} events/s "
        "(target: 100k)"
    )

    def p50_of(run) -> float:
        latencies = []
        for request in requests:
            t0 = time.perf_counter()
            run(request)
            latencies.append(time.perf_counter() - t0)
        return float(np.median(latencies))

    # -- frozen baseline: per-batch p50 of a warm serial QueryService
    with QueryService(graph, executor="serial") as frozen:
        frozen_results = frozen.run_batch(requests)  # warm the plans
        assert all(r.ok for r in frozen_results)
        frozen_cards = [r.cardinalities for r in frozen_results]
        frozen_p50 = min(
            p50_of(lambda req: frozen.run_batch([req]))
            for _ in range(repeats)
        )

    # -- live serving at a sweep of target ingest rates
    rate_curve: Dict[str, Dict[str, object]] = {}
    for label, rate in (
        ("100k", 100_000.0),
        ("400k", 400_000.0),
        ("unthrottled", None),
    ):
        builder = LiveStoreBuilder(n, t_len, attributes=store.attributes)
        writer_error: list = []
        writer_stats: Dict[str, float] = {}

        def write(builder=builder, rate=rate):
            start = time.perf_counter()
            try:
                for step in range(t_len):
                    replay_step(builder, step)
                    if rate is not None:
                        lag = (
                            builder.events_ingested / rate
                            - (time.perf_counter() - start)
                        )
                        if lag > 0:
                            time.sleep(lag)
                    builder.seal_step()
            except Exception as exc:
                writer_error.append(exc)
            finally:
                writer_stats["seconds"] = time.perf_counter() - start

        with LiveQueryService(builder, executor="serial") as live:
            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            mid_latencies = []
            i = 0
            while writer.is_alive():
                request = requests[i % len(requests)]
                t0 = time.perf_counter()
                live.run_batch([request])
                mid_latencies.append(time.perf_counter() - t0)
                i += 1
            writer.join()
            assert not writer_error, f"live writer failed: {writer_error[0]}"
            final_epoch = live.refresh()
            assert final_epoch == t_len
            final_latencies = []
            for request, want in zip(requests, frozen_cards):
                t0 = time.perf_counter()
                _, results = live.run_batch([request], refresh=False)
                final_latencies.append(time.perf_counter() - t0)
                assert results[0].ok and np.array_equal(
                    results[0].cardinalities, want
                ), "live final-epoch parity with frozen serving violated"
            _, final_store = builder.snapshot()
            assert snapshot_owned_bytes(final_store) == 0, (
                "live snapshot copied its edge columns"
            )
        seconds = writer_stats["seconds"]
        rate_curve[label] = {
            "target_rate": rate,
            "events_per_s": (
                builder.events_ingested / seconds
                if seconds
                else float("inf")
            ),
            "p50_mid_ingest_batch_s": (
                float(np.median(mid_latencies)) if mid_latencies else None
            ),
            "p50_final_epoch_batch_s": float(np.median(final_latencies)),
            "mid_ingest_batches": len(mid_latencies),
        }

    live_p50 = min(
        e["p50_final_epoch_batch_s"] for e in rate_curve.values()
    )
    assert live_p50 <= 2.0 * frozen_p50 + 0.005, (
        f"live serving p50 ({live_p50:.5f}s) exceeds 2x the frozen "
        f"baseline ({frozen_p50:.5f}s)"
    )
    return {
        "workloads.live_serving": {
            "n": n,
            "edges": store.num_edges,
            "num_queries": n_q,
            "reference_s": frozen_p50,
            "vectorized_s": live_p50,
            "ingest_events_per_s": ingest_rate,
            "snapshot_owned_bytes": 0,
            "rate_curve": rate_curve,
        }
    }


#: the reliability stack's wall-clock budget over a bare service
RELIABILITY_BUDGET = 0.05


def bench_reliability(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Reliability tax: a fully-guarded ``QueryService`` vs a bare one.

    ``reference_s`` serves a workload through a plain service,
    ``vectorized_s`` through the same service wrapped in the whole
    reliability stack — retry policy, per-request deadline, bounded
    admission — with fault injection *disabled* (the deployment
    default).  The guarantees must be free when nothing fails.

    The gate is relative only: the median guarded/bare wall-clock
    ratio over ``pairs`` pairs must stay within
    :data:`RELIABILITY_BUDGET`.  A pair replays the request stream
    ``rounds`` times on each side, alternating bare and guarded call
    by call (and which goes first), so host noise lands on both sides
    alike and the ratios' interquartile range (``overhead_iqr``,
    recorded) sits below the budget; ``resolved`` says whether it did
    on this run.  ``reference_s`` / ``vectorized_s`` are the median
    per-replay seconds.
    """
    from repro.graph.store import TemporalEdgeStore
    from repro.reliability import RetryPolicy, fault_injector
    from repro.workloads import (
        QueryRequest,
        QueryService,
        WorkloadConfig,
        WorkloadGenerator,
        serving_mix,
    )

    n, m, t_len = (200, 2400, 8) if quick else (600, 7200, 10)
    n_q = 500 if quick else 2000
    rounds = 40 if quick else 20
    pairs = max(5 * repeats, 11)
    rng = np.random.default_rng(19)
    store = TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, 2)),
    )
    graph = DynamicAttributedGraph.from_store(store)
    config = WorkloadConfig(num_queries=n_q, mix=serving_mix(), seed=5)
    queries = WorkloadGenerator(graph, config).generate()
    requests = [
        QueryRequest(queries[i:i + 256]) for i in range(0, len(queries), 256)
    ]
    assert not fault_injector.enabled, "injector must be disarmed here"

    def replay(service) -> float:
        t0 = time.perf_counter()
        service.run_batch(requests)
        return time.perf_counter() - t0

    guards = dict(
        retry_policy=RetryPolicy(),
        deadline_seconds=300.0,
        max_pending=len(requests),
    )
    bare_s, guarded_s = [], []
    with QueryService(graph, executor="thread", max_workers=2) as bare, \
            QueryService(graph, executor="thread", max_workers=2,
                         **guards) as guarded:
        for svc in (bare, guarded):  # warm pools and plan caches
            assert all(r.ok for r in svc.run_batch(requests))
        for i in range(pairs):
            bare_t = guarded_t = 0.0
            for k in range(rounds):
                if (i + k) % 2:
                    guarded_t += replay(guarded)
                    bare_t += replay(bare)
                else:
                    bare_t += replay(bare)
                    guarded_t += replay(guarded)
            bare_s.append(bare_t / rounds)
            guarded_s.append(guarded_t / rounds)
    ratios = np.asarray(guarded_s) / np.asarray(bare_s)
    overhead = float(np.median(ratios)) - 1.0
    q1, q3 = np.percentile(ratios, [25, 75])
    assert overhead <= RELIABILITY_BUDGET, (
        f"reliability stack adds {overhead:.1%} median wall-clock with "
        f"faults disabled over {pairs} pairs (budget: "
        f"{RELIABILITY_BUDGET:.0%}; ratio IQR {q3 - q1:.1%})"
    )
    return {
        "reliability.overhead": {
            "n": n,
            "edges": m,
            "num_queries": n_q,
            "pairs": pairs,
            "rounds": rounds,
            "reference_s": float(np.median(bare_s)),
            "vectorized_s": float(np.median(guarded_s)),
            "overhead_fraction": overhead,
            "overhead_iqr": float(q3 - q1),
            "budget": RELIABILITY_BUDGET,
            "resolved": bool(q3 - q1 < RELIABILITY_BUDGET),
        }
    }


def bench_experiments(quick: bool) -> Dict[str, object]:
    """Reduced-scale Fig. 9 + Table III/IV wall-clock sweeps."""
    from repro.eval.experiments import run_fig9_times, run_scalability_sweep

    scale = 0.015 if quick else 0.025
    epochs = 3 if quick else 6
    edge_counts = (100, 300) if quick else (150, 500, 1200)
    out: Dict[str, object] = {}
    with profiler.enable():
        out["fig9_times"] = run_fig9_times(
            "email", scale=scale, epochs=epochs
        )
        out["table3_table4_scalability"] = run_scalability_sweep(
            edge_counts=edge_counts, scale=scale, epochs=epochs
        )
    return out


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized scales (seconds instead of minutes)",
    )
    parser.add_argument(
        "--skip-macro", action="store_true",
        help="kernel micro-benchmarks only (skip fig9/table3/table4)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per kernel (best-of)",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_perf.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    profiler.reset()
    t0 = time.perf_counter()
    kernels = bench_kernels(args.quick, args.repeats)
    experiments: Dict[str, object] = {}
    if not args.skip_macro:
        experiments = bench_experiments(args.quick)
    report = {
        "schema_version": 1,
        "created_unix": time.time(),
        "total_seconds": time.perf_counter() - t0,
        "config": {
            "quick": args.quick,
            "repeats": args.repeats,
            "skip_macro": args.skip_macro,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernels": kernels,
        "experiments": experiments,
        "profiler": profiler.snapshot(),
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"wrote {args.output}")
    print(f"{'kernel':<36} {'ref_s':>9} {'vec_s':>9} {'speedup':>8}")
    for name, entry in kernels.items():
        if "reference_s" not in entry:
            print(f"{name:<36} {'-':>9} {entry['vectorized_s']:>9.4f} {'-':>8}")
            continue
        print(
            f"{name:<36} {entry['reference_s']:>9.4f} "
            f"{entry['vectorized_s']:>9.4f} {entry['speedup']:>7.1f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
