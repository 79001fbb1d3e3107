#!/usr/bin/env python
"""Performance trajectory report: kernels + paper-scale experiments.

Runs (a) micro-benchmarks of every vectorized hot-path kernel against
its ``_reference_*`` twin and (b) the reduced-scale Fig. 9 / Table III /
Table IV timing experiments, then writes the results to
``BENCH_perf.json`` (schema documented in ``benchmarks/README.md``).

It measures only what the gated end-to-end benchmark (``perfbench/``,
declared in ``BENCHMARK.json``) cannot see: a kernel next to its twin.
Training, batched / live / multi-process serving are timed end to end
by the perfbench ``fit``, ``serve_live`` and ``serve_process``
workloads, and their floors are ``-m perf`` tests
(``tests/perf/test_serving_gates.py``).

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
import tracemalloc
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
from repro.profiling import best_of as _best_of, profiler


def _random_sparse_graph(
    n: int, e: int, seed: int
) -> SparseDirectedGraph:
    rng = np.random.default_rng(seed)
    return SparseDirectedGraph(n, rng.integers(0, n, size=(e, 2)))


def _random_store(n: int, e: int, t_len: int, seed: int) -> TemporalEdgeStore:
    """Store of ``e`` uniform ``(src, dst, t)`` draws (loops and
    duplicate draws collapse)."""
    rng = np.random.default_rng(seed)
    return TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=e),
        rng.integers(0, n, size=e),
        rng.integers(0, t_len, size=e),
    )


def _table1_events(quick: bool, seed: int) -> tuple:
    """Random Table-I-shaped events as ``TemporalEdgeStore`` arguments:
    ``(n, t_len, src, dst, t, attributes)`` with two node attributes."""
    n, m, t_len = (200, 2400, 8) if quick else (600, 7200, 10)
    rng = np.random.default_rng(seed)
    return (
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, 2)),
    )


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
    ref_rows, ref_cols = np.nonzero(
        sampler._reference_sample(s, np.random.default_rng(5))
    )
    src, dst = sampler.sample_edges(s, np.random.default_rng(5))
    assert np.array_equal(src, ref_rows) and np.array_equal(
        dst, ref_cols
    ), "decode parity violated"
    out["generator.mixbernoulli_sample"] = {
        "n": n_decode,
        "edges": n_decode * n_decode,
        "reference_s": _best_of(
            lambda: sampler._reference_sample(s, np.random.default_rng(5)),
            repeats,
        ),
        "vectorized_s": _best_of(
            lambda: sampler.sample_edges(s, np.random.default_rng(5)),
            repeats,
        ),
    }

    # batched temporal walk sampling (Fig. 9 baseline hot path)
    walk_store = _random_store(max(n_graph // 4, 20), e_graph, 10, seed=3)
    sam = TemporalWalkSampler(walk_store, time_window=2, seed=0)

    def scalar_walks() -> list:
        walks = []
        for _ in range(n_walks):
            w = sam.sample_walk(walk_len)
            if w and len(w) >= 2:
                walks.append(w)
        return walks

    out["walks.sample_walks"] = {
        "n": n_walks,
        "edges": walk_store.num_edges,
        "reference_s": _best_of(scalar_walks, repeats),
        "vectorized_s": _best_of(
            lambda: sam.sample_walks(n_walks, walk_len), repeats
        ),
    }

    out.update(bench_store(quick, repeats))
    out.update(bench_generation(quick, repeats))
    out.update(bench_ingest(quick, repeats))
    out.update(bench_api(quick, repeats))
    out.update(bench_workloads(quick, repeats))
    out.update(bench_reliability(quick, repeats))

    for entry in out.values():
        entry["speedup"] = (
            entry["reference_s"] / entry["vectorized_s"]
            if entry["vectorized_s"] > 0
            else float("inf")
        )
    return out


def bench_store(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Columnar store vs dense representation on a Table-I-shaped graph.

    Three entries track the refactor's win: canonical *construction*
    (columnar store build vs dense tensor ingestion), *snapshot
    iteration* (per-timestep degree/edge-count queries through the
    store views vs dense row sums), and *metric evaluation* (the CSR
    structure-summary kernels vs their dense references).
    """
    n, t_len, src, dst, t, _ = _table1_events(quick, seed=7)
    t = np.sort(t)
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
                    lo, hi, head, proj, alpha[lo:hi], state, block
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


def _traced_peak(fn) -> int:
    """Peak bytes tracemalloc traces during one (untimed) ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_ingest(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Bounded-memory streaming ingestion vs bulk store construction.

    ``reference_s`` is the one-shot canonicalization
    (``TemporalEdgeStore(src, dst, t)``: one sort of every packed key),
    ``vectorized_s`` the chunked :func:`ingest_stream` fold whose
    unsorted working set is one chunk (its key runs peak at up to 2x
    the canonical columns, at the final unpack like the bulk build).  The target is bounded memory at
    time parity, not a win, so the entry reports both sides' traced
    peak bytes (``reference_peak_bytes`` / ``vectorized_peak_bytes``,
    measured in one untimed tracemalloc run each) next to their times;
    equality of the resulting stores is asserted before timing.
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
            "reference_peak_bytes": _traced_peak(bulk),
            "vectorized_peak_bytes": _traced_peak(streaming),
            "chunk_events": chunk,
        }
    }


def bench_api(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Facade tax: ``api.Pipeline.run`` vs calling the pieces directly.

    Both sides do identical work (load the twin, fit a small VRDAG,
    generate, score the structure suite); the entry tracks what the
    ``repro.api`` plumbing adds on top.  The facade must stay free:
    over ``pairs`` interleaved direct/facade pairs, the median pair
    must keep the facade within 5% (+20 ms) of the direct wall-clock.
    A pair runs both sides back to back, alternating which goes
    first, so host noise lands on both alike (as in
    ``reliability.overhead``); ``reference_s`` / ``vectorized_s`` are
    the per-side medians and ``overhead_fraction`` the median
    facade/direct ratio less one.
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

    def timed(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    assert facade() == direct(), "pipeline facade parity violated"
    # ~0.2 s runs on a shared host swing by tens of percent between
    # runs; 7 pairs let that noise breach the bound, 21 hold it
    pairs = max(2 * repeats + 1, 21)
    direct_s, facade_s = np.empty(pairs), np.empty(pairs)
    for i in range(pairs):
        if i % 2:
            facade_s[i] = timed(facade)
            direct_s[i] = timed(direct)
        else:
            direct_s[i] = timed(direct)
            facade_s[i] = timed(facade)
    overhead = float(np.median(facade_s / direct_s)) - 1.0
    # 5% relative budget plus a 20ms absolute allowance per pair: on
    # shared CI runners scheduler jitter alone can move a ~0.2s run by
    # more than 5%, and that noise is not facade overhead
    excess = facade_s - (direct_s * 1.05 + 0.02)
    assert np.median(excess) <= 0.0, (
        f"api.Pipeline adds {overhead:.1%} median wall-clock over direct "
        f"calls over {pairs} pairs (budget: 5% + 20 ms)"
    )
    return {
        "api.pipeline_overhead": {
            "n": timesteps,
            "edges": 0,
            "pairs": pairs,
            "reference_s": float(np.median(direct_s)),
            "vectorized_s": float(np.median(facade_s)),
            "overhead_fraction": overhead,
        }
    }


def bench_workloads(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Query kernels: batched vs per-query dispatch.

    Two entries over a Table-I-shaped store-backed graph and a
    point-lookup-heavy serving mix (``serving_mix()``):

    - ``workloads.batched_queries`` — one workload replayed through
      the batched vectorized kernels (``run_queries_batched``) vs the
      per-query dispatch loop.  Result cardinalities are asserted
      bit-identical before timing.
    - ``workloads.batched_traversals`` — the frontier-vectorized BFS
      kernels (``batch_two_hop`` / ``batch_temporal_reach``) vs their
      per-query reference twins, one ``kinds`` sub-dict per traversal
      class.  Parity and zero dense materializations are asserted
      before timing; at full scale each kind must clear a 5x speedup
      floor.
    """
    from repro.graph.store import track_dense_materializations
    from repro.workloads import (
        GraphQueryEngine,
        WorkloadConfig,
        WorkloadGenerator,
        run_queries_batched,
        serving_mix,
    )
    from repro.workloads.generator import _run_query

    store = TemporalEdgeStore(*_table1_events(quick, seed=17))
    n, m, t_len = store.num_nodes, store.num_edges, store.num_timesteps
    n_q = 500 if quick else 2000
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

    # -- frontier-vectorized traversals: batched BFS vs per-query BFS
    rng = np.random.default_rng(18)
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
    from repro.reliability import RetryPolicy, fault_injector
    from repro.workloads import (
        QueryRequest,
        QueryService,
        WorkloadConfig,
        WorkloadGenerator,
        serving_mix,
    )

    store = TemporalEdgeStore(*_table1_events(quick, seed=19))
    n_q = 500 if quick else 2000
    rounds = 40 if quick else 20
    pairs = max(5 * repeats, 11)
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
            "n": store.num_nodes,
            "edges": store.num_edges,
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
        print(
            f"{name:<36} {entry['reference_s']:>9.4f} "
            f"{entry['vectorized_s']:>9.4f} {entry['speedup']:>7.1f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
