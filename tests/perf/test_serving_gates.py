"""Serving floors: batched, live and multi-process serving vs a baseline.

Each test times one serving topology against the path it must beat or
stay near, on a random Table-I-shaped store and the point-lookup-heavy
serving mix (``-m perf`` selects them).  End-to-end latency and
throughput of these paths are the perfbench ``serve_live`` /
``serve_process`` workloads; these are the floors that must hold on
any host.  Result parity of each pair is pinned by the serving suites
(``tests/serving/test_router.py``, ``tests/workloads/test_live_service.py``,
``tests/graph/test_live_epochs.py``), so the timings here compare
identical work.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.graph import DynamicAttributedGraph
from repro.graph.live import LiveStoreBuilder
from repro.graph.store import TemporalEdgeStore
from repro.profiling import best_of
from repro.workloads import (
    GraphQueryEngine,
    LiveQueryService,
    QueryRequest,
    QueryService,
    WorkloadConfig,
    WorkloadGenerator,
    serving_mix,
)
from repro.workloads.generator import _run_query

pytestmark = pytest.mark.perf

#: events/s a full unpaced live replay (extend + seal) must sustain
LIVE_INGEST_FLOOR = 100_000


def _store(seed: int) -> TemporalEdgeStore:
    n, m, t_len = 200, 2400, 8
    rng = np.random.default_rng(seed)
    return TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, 2)),
    )


def _queries(graph, num_queries: int, seed: int):
    config = WorkloadConfig(num_queries=num_queries, mix=serving_mix(), seed=seed)
    return WorkloadGenerator(graph, config).generate()


def _chunks(queries, size: int):
    return [queries[i:i + size] for i in range(0, len(queries), size)]


def test_batched_service_beats_per_query_loop():
    graph = DynamicAttributedGraph.from_store(_store(17))
    queries = _queries(graph, 500, seed=5)
    engine = GraphQueryEngine(graph)
    per_query = lambda: [_run_query(engine, q) for q in queries]  # noqa: E731
    per_query()  # warm the plan cache
    per_query_s = best_of(per_query)

    walls = []
    for executor, workers in (("serial", 1), ("thread", 2), ("thread", 4)):
        with QueryService(engine, executor=executor,
                          max_workers=workers) as service:
            for size in (64, 256):
                requests = [QueryRequest(c) for c in _chunks(queries, size)]
                service.run_batch(requests)  # warm pool + plans
                walls.append(best_of(lambda: service.run_batch(requests)))
    assert min(walls) < per_query_s, (
        f"batched serving ({min(walls):.4f}s) failed to beat per-query "
        f"dispatch ({per_query_s:.4f}s)"
    )


def _replay_step(builder: LiveStoreBuilder, store, step: int) -> None:
    lo, hi = int(store.offsets[step]), int(store.offsets[step + 1])
    builder.extend(store.src[lo:hi], store.dst[lo:hi], store.t[lo:hi])


def test_live_ingest_sustains_floor_rate():
    store = _store(23)

    def ingest():
        builder = LiveStoreBuilder(
            store.num_nodes, store.num_timesteps, attributes=store.attributes
        )
        for step in range(store.num_timesteps):
            _replay_step(builder, store, step)
            builder.seal_step()

    rate = store.num_edges / best_of(ingest)
    assert rate >= LIVE_INGEST_FLOOR, (
        f"live ingest sustained only {rate:,.0f} events/s "
        f"(floor: {LIVE_INGEST_FLOOR:,})"
    )


def _p50(run, requests) -> float:
    latencies = []
    for request in requests:
        t0 = time.perf_counter()
        run(request)
        latencies.append(time.perf_counter() - t0)
    return float(np.median(latencies))


def test_live_final_epoch_p50_near_frozen():
    store = _store(23)
    graph = DynamicAttributedGraph.from_store(store)
    requests = [QueryRequest(c) for c in _chunks(_queries(graph, 500, 23), 64)]

    with QueryService(graph, executor="serial") as frozen:
        frozen.run_batch(requests)  # warm the plans
        frozen_p50 = min(
            _p50(lambda r: frozen.run_batch([r]), requests) for _ in range(3)
        )

    builder = LiveStoreBuilder(
        store.num_nodes, store.num_timesteps, attributes=store.attributes
    )

    def write():
        for step in range(store.num_timesteps):
            _replay_step(builder, store, step)
            builder.seal_step()

    with LiveQueryService(builder, executor="serial") as live:
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        while writer.is_alive():  # serve while the writer seals steps
            live.run_batch(requests[:1])
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert live.refresh() == store.num_timesteps
        live_p50 = min(
            _p50(lambda r: live.run_batch([r], refresh=False), requests)
            for _ in range(3)
        )
    assert live_p50 <= 2.0 * frozen_p50 + 0.005, (
        f"live final-epoch p50 ({live_p50:.5f}s) exceeds 2x the frozen "
        f"baseline ({frozen_p50:.5f}s) + 5ms"
    )


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(
    _usable_cores() < 4, reason="the 2x-at-4-workers floor needs 4 cores"
)
def test_process_service_scales_to_four_workers():
    from repro.serving import ProcessQueryService, encode_queries

    graph = DynamicAttributedGraph.from_store(_store(17))
    # 32 requests: every one of the 4 workers serves 8 per replay
    chunks = _chunks(_queries(graph, 16_384, seed=17), 512)
    with QueryService(graph, executor="serial") as single:
        plain = [QueryRequest(c) for c in chunks]
        single.run_batch(plain)  # warm the plan cache
        single_s = best_of(lambda: single.run_batch(plain))
    columnar = [encode_queries(c) for c in chunks]
    with ProcessQueryService(graph, num_workers=4) as tier:
        tier.run_batch(columnar)  # warm caches + pipes
        tier_s = best_of(lambda: tier.run_batch(columnar))
    speedup = single_s / tier_s
    assert speedup >= 2.0, (
        f"4 worker processes reached only {speedup:.2f}x over one "
        f"(floor: 2x on {_usable_cores()} cores)"
    )
