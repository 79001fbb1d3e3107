"""Perf smoke: vectorized kernels must not regress behind the
references (``-m perf`` selects these; they run at tiny scale so tier-1
stays fast).

These are sanity bounds, not benchmarks — the real trajectory lives in
``BENCH_perf.json`` (see ``scripts/bench_report.py``).  The bound is
deliberately loose (vectorized ≤ 3× reference wall-clock) so scheduler
noise on tiny inputs can't flake the suite; a genuine regression (the
vectorized path degenerating to per-element work) overshoots it by
orders of magnitude.
"""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.baselines.walks import TemporalWalkSampler
from repro.core.generator import MixBernoulliSampler
from repro.graph.sparse import SparseDirectedGraph
from repro.graph.store import TemporalEdgeStore
from repro.profiling import best_of as _best_of

#: vectorized may be at most this multiple of the reference wall-clock
SANITY_BOUND = 3.0


def _assert_not_slower(fast, ref):
    fast_s = _best_of(fast)
    ref_s = _best_of(ref)
    assert fast_s <= max(ref_s * SANITY_BOUND, 1e-3), (
        f"vectorized path took {fast_s:.4f}s vs reference {ref_s:.4f}s"
    )


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(0)
    return SparseDirectedGraph(300, rng.integers(0, 300, size=(1800, 2)))


@pytest.mark.perf
class TestPerfSmoke:
    def test_clustering(self, graph):
        _assert_not_slower(
            graph.clustering_coefficients,
            graph._reference_clustering_coefficients,
        )

    def test_components(self, graph):
        _assert_not_slower(
            graph.connected_component_sizes,
            graph._reference_connected_component_sizes,
        )

    def test_wedges(self, graph):
        _assert_not_slower(
            graph.wedge_count, graph._reference_wedge_count
        )

    def test_decode(self):
        rng = np.random.default_rng(1)
        sampler = MixBernoulliSampler(16, num_components=3, rng=rng)
        s = Tensor(rng.normal(size=(48, 16)))
        _assert_not_slower(
            lambda: sampler.sample_edges(s, np.random.default_rng(2)),
            lambda: sampler._reference_sample(s, np.random.default_rng(2)),
        )

    def test_walks(self):
        rng = np.random.default_rng(2)
        store = TemporalEdgeStore(
            40, 8,
            rng.integers(0, 40, size=400),
            rng.integers(0, 40, size=400),
            rng.integers(0, 8, size=400),
        )
        sampler = TemporalWalkSampler(store, time_window=2, seed=0)

        def scalar():
            out = []
            for _ in range(100):
                w = sampler.sample_walk(8)
                if w and len(w) >= 2:
                    out.append(w)
            return out

        _assert_not_slower(lambda: sampler.sample_walks(100, 8), scalar)

    def test_batched_queries(self):
        from repro.graph import DynamicAttributedGraph
        from repro.workloads import (
            GraphQueryEngine,
            WorkloadConfig,
            WorkloadGenerator,
            run_queries_batched,
            serving_mix,
        )
        from repro.workloads.generator import _run_query

        rng = np.random.default_rng(3)
        n, m, t_len = 120, 900, 6
        graph = DynamicAttributedGraph.from_store(TemporalEdgeStore(
            n, t_len,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.integers(0, t_len, size=m),
            rng.normal(size=(t_len, n, 2)),
        ))
        queries = WorkloadGenerator(
            graph, WorkloadConfig(num_queries=300, mix=serving_mix(), seed=1)
        ).generate()
        engine = GraphQueryEngine(graph)
        engine.batch_has_edge([0], [1], [0])  # warm the key plans

        _assert_not_slower(
            lambda: run_queries_batched(engine, queries),
            lambda: [_run_query(engine, q) for q in queries],
        )

    def test_batched_traversals(self):
        from repro.graph import DynamicAttributedGraph
        from repro.workloads import GraphQueryEngine

        rng = np.random.default_rng(4)
        n, m, t_len = 150, 1500, 6
        graph = DynamicAttributedGraph.from_store(TemporalEdgeStore(
            n, t_len,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.integers(0, t_len, size=m),
            None,
        ))
        engine = GraphQueryEngine(graph)
        n_q = 400
        nodes = rng.integers(0, n, size=n_q)
        ts = rng.integers(0, t_len, size=n_q)
        src = rng.integers(0, n, size=n_q)
        dst = rng.integers(0, n, size=n_q)
        t0 = rng.integers(0, t_len, size=n_q)
        t1 = np.minimum(t0 + rng.integers(0, t_len, size=n_q), t_len - 1)
        engine.batch_two_hop(nodes[:1], ts[:1])  # warm the plans

        _assert_not_slower(
            lambda: engine.batch_two_hop(nodes, ts),
            lambda: engine._reference_batch_two_hop(nodes, ts),
        )
        _assert_not_slower(
            lambda: engine.batch_temporal_reach(src, dst, t0, t1),
            lambda: engine._reference_batch_temporal_reach(src, dst, t0, t1),
        )

    def test_batched_analytics(self):
        from repro.graph import DynamicAttributedGraph
        from repro.workloads import (
            GraphQueryEngine,
            QueryKind,
            WorkloadConfig,
            WorkloadGenerator,
            run_queries_batched,
        )

        rng = np.random.default_rng(5)
        n, m, t_len = 150, 1500, 6
        graph = DynamicAttributedGraph.from_store(TemporalEdgeStore(
            n, t_len,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.integers(0, t_len, size=m),
            None,
        ))
        mix = {QueryKind.TRIANGLE_COUNT: 0.5, QueryKind.DEGREE_TOPK: 0.5}
        queries = WorkloadGenerator(
            graph, WorkloadConfig(num_queries=300, mix=mix, seed=2)
        ).generate()

        # plan builds are a count, not a timing: each kind builds one
        # plan per distinct timestep, however many queries it answers
        for kind in mix:
            group = [q for q in queries if q.kind == kind]
            k = len({q.t for q in group})
            assert len(group) > 100 and k > 1
            engine = GraphQueryEngine(graph)
            run_queries_batched(engine, group)
            stats = engine.plans.stats()
            assert (stats.misses, stats.hits) == (k, 0)

        engine = GraphQueryEngine(graph)
        ts = np.array([q.t for q in queries], dtype=np.int64)
        ks = np.full(ts.size, 10)
        _assert_not_slower(
            lambda: engine.batch_triangle_counts(ts),
            lambda: engine._reference_batch_triangle_counts(ts),
        )
        _assert_not_slower(
            lambda: engine.batch_degree_topk(ts, ks),
            lambda: engine._reference_batch_degree_topk(ts, ks),
        )
