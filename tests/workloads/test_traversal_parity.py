"""Randomized parity harness for the frontier-vectorized batched BFS
kernels and the plan-cached per-snapshot analytics kernels.

The contract under test (docs/workloads.md): ``batch_two_hop`` and
``batch_temporal_reach`` are bit-identical to their
``_reference_batch_*`` per-query twins *and* to the scalar engine
methods (``two_hop_neighbors`` / ``k_hop`` / ``temporal_reachable``),
for random stores × random query batches, across every executor
(serial / thread / process) and the live epoch-pinned path — with
zero dense materializations throughout.  ``batch_triangle_counts`` /
``batch_degree_topk`` are held to the same three-way contract against
their snapshot-based twins and the scalar ``triangle_count`` /
``degree_topk``.

Randomization follows the ``REPRO_CHAOS_SEED`` convention: every
store, column and workload below is a pure function of the seed
(default 0), so a CI failure reproduces locally with the same
environment variable.
"""

import os

import numpy as np
import pytest

from repro.graph.dynamic import DynamicAttributedGraph
from repro.graph.live import LiveStoreBuilder
from repro.graph.store import (
    TemporalEdgeStore,
    track_dense_materializations,
)
from repro.workloads import (
    GraphQueryEngine,
    LiveQueryService,
    Query,
    QueryKind,
    QueryRequest,
    QueryService,
    WorkloadConfig,
    WorkloadGenerator,
    run_queries_batched,
)
from repro.workloads.generator import _run_query

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Derived per-case seeds: distinct streams per round, all anchored
#: to the one chaos seed.
ROUNDS = [CHAOS_SEED * 1009 + i for i in range(4)]

#: A traversal-heavy mix: the two BFS classes dominate, with a sliver
#: of point lookups so grouped dispatch interleaves kernel classes.
TRAVERSAL_MIX = {
    QueryKind.TWO_HOP: 0.45,
    QueryKind.TEMPORAL_REACH: 0.45,
    QueryKind.OUT_NEIGHBORS: 0.10,
}


#: An analytics-heavy mix: the two per-snapshot analytics classes
#: dominate, with a sliver of point lookups interleaved.
ANALYTICS_MIX = {
    QueryKind.TRIANGLE_COUNT: 0.4,
    QueryKind.DEGREE_TOPK: 0.4,
    QueryKind.OUT_NEIGHBORS: 0.2,
}


def analytics_twin_cardinalities(engine, queries):
    """Cardinalities of an ``ANALYTICS_MIX`` batch from the
    ``_reference_batch_*`` twins (the analytics twins are the
    snapshot-based kernels, independent of the plan cache)."""
    out = np.zeros(len(queries), dtype=np.int64)
    for kind in ANALYTICS_MIX:
        idx = [i for i, q in enumerate(queries) if q.kind == kind]
        if not idx:
            continue
        ts = [queries[i].t for i in idx]
        if kind == QueryKind.TRIANGLE_COUNT:
            out[idx] = engine._reference_batch_triangle_counts(ts)
        elif kind == QueryKind.DEGREE_TOPK:
            ks = [queries[i].args[0] for i in idx]
            offsets, _ = engine._reference_batch_degree_topk(ts, ks)
            out[idx] = np.diff(offsets)
        else:
            nodes = [queries[i].args[0] for i in idx]
            out[idx] = engine._reference_batch_degrees(nodes, ts, "out")
    return out


def random_engine(seed, n=None, m=None, t_len=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(5, 70))
    t_len = t_len or int(rng.integers(1, 7))
    m = m if m is not None else int(rng.integers(0, 8 * n))
    store = TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, 2)),
    )
    return GraphQueryEngine(DynamicAttributedGraph.from_store(store))


def traversal_columns(engine, seed, size=160):
    rng = np.random.default_rng(seed)
    n = engine.graph.num_nodes
    t_len = engine.graph.num_timesteps
    nodes = rng.integers(0, n, size=size)
    ts = rng.integers(0, t_len, size=size)
    ks = rng.integers(0, 4, size=size)
    src = rng.integers(0, n, size=size)
    dst = rng.integers(0, n, size=size)
    t0 = rng.integers(0, t_len, size=size)
    t1 = np.minimum(t0 + rng.integers(0, t_len, size=size), t_len - 1)
    return nodes, ts, ks, src, dst, t0, t1


class TestRandomizedKernelParity:
    """batched == reference twin == scalar methods, per random round."""

    @pytest.mark.parametrize("seed", ROUNDS)
    def test_two_hop_three_way_parity(self, seed):
        engine = random_engine(seed)
        nodes, ts, ks, *_ = traversal_columns(engine, seed + 1)
        with track_dense_materializations() as materialized:
            got = engine.batch_two_hop(nodes, ts, ks)
            twin = engine._reference_batch_two_hop(nodes, ts, ks)
        assert materialized() == 0
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, twin)
        scalar = [
            len(engine.k_hop(v, t, k))
            for v, t, k in zip(nodes.tolist(), ts.tolist(), ks.tolist())
        ]
        np.testing.assert_array_equal(got, scalar)

    @pytest.mark.parametrize("seed", ROUNDS)
    def test_two_hop_default_k_matches_two_hop_neighbors(self, seed):
        engine = random_engine(seed)
        nodes, ts, *_ = traversal_columns(engine, seed + 2, size=60)
        got = engine.batch_two_hop(nodes, ts)  # scalar ks=2 broadcast
        scalar = [
            len(engine.two_hop_neighbors(v, t))
            for v, t in zip(nodes.tolist(), ts.tolist())
        ]
        np.testing.assert_array_equal(got, scalar)

    @pytest.mark.parametrize("seed", ROUNDS)
    def test_temporal_reach_three_way_parity(self, seed):
        engine = random_engine(seed)
        _, _, _, src, dst, t0, t1 = traversal_columns(engine, seed + 3)
        with track_dense_materializations() as materialized:
            got = engine.batch_temporal_reach(src, dst, t0, t1)
            twin = engine._reference_batch_temporal_reach(src, dst, t0, t1)
        assert materialized() == 0
        assert got.dtype == bool
        np.testing.assert_array_equal(got, twin)
        scalar = [
            engine.temporal_reachable(u, v, a, b)
            for u, v, a, b in zip(
                src.tolist(), dst.tolist(), t0.tolist(), t1.tolist()
            )
        ]
        np.testing.assert_array_equal(got, scalar)

    @pytest.mark.parametrize("seed", ROUNDS)
    def test_grouped_dispatch_covers_traversals(self, seed):
        """run_queries_batched answers TWO_HOP / TEMPORAL_REACH via the
        kernels and stays bit-identical."""
        engine = random_engine(seed)
        config = WorkloadConfig(
            num_queries=200, mix=TRAVERSAL_MIX, seed=seed
        )
        queries = WorkloadGenerator(engine.graph, config).generate()
        with track_dense_materializations() as materialized:
            cards, seconds = run_queries_batched(engine, queries)
        assert materialized() == 0
        ref = np.array([_run_query(engine, q) for q in queries])
        np.testing.assert_array_equal(cards, ref)
        assert set(seconds) == {q.kind.value for q in queries}


class TestRandomizedAnalyticsParity:
    """Analytics kernels == snapshot-based twins == scalar methods."""

    @pytest.mark.parametrize("seed", ROUNDS)
    def test_triangle_counts_three_way_parity(self, seed):
        engine = random_engine(seed)
        _, ts, *_ = traversal_columns(engine, seed + 4)
        with track_dense_materializations() as materialized:
            got = engine.batch_triangle_counts(ts)
            twin = engine._reference_batch_triangle_counts(ts)
        assert materialized() == 0
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, twin)
        np.testing.assert_array_equal(
            got, [engine.triangle_count(t) for t in ts.tolist()]
        )

    @pytest.mark.parametrize("direction", ["out", "in", "total"])
    @pytest.mark.parametrize("seed", ROUNDS)
    def test_degree_topk_three_way_parity(self, seed, direction):
        engine = random_engine(seed)
        rng = np.random.default_rng(seed + 5)
        n = engine.graph.num_nodes
        ts = rng.integers(0, engine.graph.num_timesteps, size=120)
        ks = rng.integers(0, n + 3, size=120)  # includes k = 0 and k > N
        with track_dense_materializations() as materialized:
            offsets, ids = engine.batch_degree_topk(ts, ks, direction)
            twin = engine._reference_batch_degree_topk(ts, ks, direction)
        assert materialized() == 0
        np.testing.assert_array_equal(offsets, twin[0])
        np.testing.assert_array_equal(ids, twin[1])
        for i, (t, k) in enumerate(zip(ts.tolist(), ks.tolist())):
            assert ids[offsets[i]:offsets[i + 1]].tolist() == (
                engine.degree_topk(t, k, direction)
            )

    @pytest.mark.parametrize("seed", ROUNDS)
    def test_grouped_dispatch_covers_analytics(self, seed):
        engine = random_engine(seed)
        config = WorkloadConfig(
            num_queries=200, mix=ANALYTICS_MIX, seed=seed
        )
        queries = WorkloadGenerator(engine.graph, config).generate()
        with track_dense_materializations() as materialized:
            cards, seconds = run_queries_batched(engine, queries)
        assert materialized() == 0
        np.testing.assert_array_equal(
            cards, analytics_twin_cardinalities(engine, queries)
        )
        assert set(seconds) == {q.kind.value for q in queries}


class TestAnalyticsEdgeCases:
    @pytest.fixture()
    def engine(self):
        return random_engine(CHAOS_SEED * 7919 + 29, n=25, m=200, t_len=3)

    def test_k_zero_and_k_beyond_n(self, engine):
        n = engine.graph.num_nodes
        ts = np.array([0, 1, 2, 0])
        ks = np.array([0, n, n + 7, 3])
        offsets, ids = engine.batch_degree_topk(ts, ks)
        np.testing.assert_array_equal(np.diff(offsets), [0, n, n, 3])
        assert engine.degree_topk(0, 0) == []
        assert engine.degree_topk(2, n + 7) == (
            ids[offsets[2]:offsets[3]].tolist()
        )
        assert sorted(engine.degree_topk(1, n + 7)) == list(range(n))
        twin = engine._reference_batch_degree_topk(ts, ks)
        np.testing.assert_array_equal(ids, twin[1])

    def test_scalar_k_broadcasts(self, engine):
        ts = np.array([0, 2, 2])
        offsets, ids = engine.batch_degree_topk(ts, 4)
        twin = engine._reference_batch_degree_topk(ts, 4)
        np.testing.assert_array_equal(offsets, twin[0])
        np.testing.assert_array_equal(ids, twin[1])

    def test_empty_batch(self, engine):
        empty = np.zeros(0, dtype=np.int64)
        counts = engine.batch_triangle_counts(empty)
        assert counts.size == 0 and counts.dtype == np.int64
        offsets, ids = engine.batch_degree_topk(empty, empty)
        np.testing.assert_array_equal(offsets, [0])
        assert ids.size == 0

    def test_out_of_range_timestep_raises_index_error(self, engine):
        t_len = engine.graph.num_timesteps
        for bad in (t_len, -1):
            with pytest.raises(IndexError, match="out of range"):
                engine.triangle_count(bad)
            with pytest.raises(IndexError, match="out of range"):
                engine.batch_triangle_counts([0, bad])
            with pytest.raises(IndexError, match="out of range"):
                engine._reference_batch_triangle_counts([0, bad])
            with pytest.raises(IndexError, match="out of range"):
                engine.degree_topk(bad, 3)
            with pytest.raises(IndexError, match="out of range"):
                engine.batch_degree_topk([bad], [3])
            with pytest.raises(IndexError, match="out of range"):
                engine._reference_batch_degree_topk([bad], [3])

    def test_negative_k_and_bad_direction_rejected(self, engine):
        with pytest.raises(ValueError, match="k must be >= 0"):
            engine.batch_degree_topk([0, 1], [2, -1])
        with pytest.raises(ValueError, match="k must be >= 0"):
            engine.degree_topk(0, -1)
        with pytest.raises(ValueError, match="direction"):
            engine.batch_degree_topk([0], [1], "sideways")

    def test_length_mismatch_rejected(self, engine):
        with pytest.raises(ValueError, match="lengths differ"):
            engine.batch_degree_topk([0, 1], [3])

    def test_repeated_timesteps_cost_one_plan_each(self, engine):
        ts = np.array([2, 0, 2, 2, 0, 2])
        engine.batch_triangle_counts(ts)
        engine.batch_degree_topk(ts, 5)
        stats = engine.plans.stats()
        assert stats.misses == 4  # triangles + degree_order, t in {0, 2}
        assert stats.hits == 0


class TestTraversalEdgeCases:
    @pytest.fixture()
    def engine(self):
        return random_engine(CHAOS_SEED * 7919 + 13, n=30, m=150, t_len=4)

    def test_duplicate_query_ids(self, engine):
        """The same (node, t) repeated gets per-query-distinct packed
        keys — duplicates never collapse or cross-contaminate."""
        nodes = np.array([3, 3, 3, 5, 3])
        ts = np.array([0, 0, 1, 1, 0])
        got = engine.batch_two_hop(nodes, ts)
        np.testing.assert_array_equal(
            got, engine._reference_batch_two_hop(nodes, ts)
        )
        src = np.array([3, 3, 5, 3])
        dst = np.array([7, 7, 7, 3])
        t0 = np.zeros(4, dtype=np.int64)
        t1 = np.full(4, engine.graph.num_timesteps - 1)
        reach = engine.batch_temporal_reach(src, dst, t0, t1)
        np.testing.assert_array_equal(
            reach, engine._reference_batch_temporal_reach(src, dst, t0, t1)
        )
        assert reach[0] == reach[1]  # identical queries, identical answer
        assert reach[3]  # src == dst is always reachable

    def test_empty_batch(self, engine):
        empty = np.zeros(0, dtype=np.int64)
        assert engine.batch_two_hop(empty, empty, empty).size == 0
        out = engine.batch_temporal_reach(empty, empty, empty, empty)
        assert out.size == 0 and out.dtype == bool

    def test_empty_frontier_zero_hops(self, engine):
        """k = 0 queries never expand: the source-only frontier is
        filtered out before the first level."""
        nodes = np.array([0, 1, 2])
        ts = np.zeros(3, dtype=np.int64)
        got = engine.batch_two_hop(nodes, ts, np.array([0, 0, 2]))
        assert got[0] == 0 and got[1] == 0
        assert got[2] == len(engine.two_hop_neighbors(2, 0))

    def test_isolated_nodes(self):
        """Nodes with no edges: two-hop counts 0, reachability only to
        themselves (the empty-frontier path of the shared kernel)."""
        store = TemporalEdgeStore(
            6, 3,
            np.array([0, 1]), np.array([1, 2]), np.array([0, 1]), None,
        )
        engine = GraphQueryEngine(DynamicAttributedGraph.from_store(store))
        isolated = np.array([3, 4, 5])
        ts = np.zeros(3, dtype=np.int64)
        np.testing.assert_array_equal(
            engine.batch_two_hop(isolated, ts), [0, 0, 0]
        )
        reach = engine.batch_temporal_reach(
            isolated, np.array([0, 4, 0]),
            np.zeros(3, dtype=np.int64), np.full(3, 2),
        )
        np.testing.assert_array_equal(reach, [False, True, False])

    def test_edgeless_store(self):
        store = TemporalEdgeStore(
            4, 2, np.zeros(0, int), np.zeros(0, int), np.zeros(0, int), None
        )
        engine = GraphQueryEngine(DynamicAttributedGraph.from_store(store))
        nodes = np.array([0, 1, 2, 3])
        ts = np.array([0, 0, 1, 1])
        np.testing.assert_array_equal(
            engine.batch_two_hop(nodes, ts), [0, 0, 0, 0]
        )
        reach = engine.batch_temporal_reach(
            nodes, nodes[::-1].copy(), np.zeros(4, int), np.ones(4, int)
        )
        np.testing.assert_array_equal(reach, [False, False, False, False])

    def test_out_of_range_rejected(self, engine):
        n = engine.graph.num_nodes
        t_len = engine.graph.num_timesteps
        with pytest.raises(IndexError, match="timesteps out of range"):
            engine.batch_two_hop([0], [t_len])
        with pytest.raises(IndexError, match="node ids out of range"):
            engine.batch_two_hop([n], [0])
        with pytest.raises(IndexError, match="timesteps out of range"):
            engine.batch_temporal_reach([0], [1], [0], [t_len])
        with pytest.raises(IndexError, match="node ids out of range"):
            engine.batch_temporal_reach([-1], [0], [0], [0])

    def test_negative_k_rejected(self, engine):
        with pytest.raises(ValueError, match="k must be >= 0"):
            engine.batch_two_hop([0, 1], [0, 0], [2, -1])

    def test_inverted_window_rejected(self, engine):
        with pytest.raises(ValueError, match="t1 < t0"):
            engine.batch_temporal_reach([0], [1], [2], [1])

    def test_length_mismatch_rejected(self, engine):
        with pytest.raises(ValueError, match="lengths differ"):
            engine.batch_two_hop([0, 1], [0])
        with pytest.raises(ValueError, match="lengths differ"):
            engine.batch_temporal_reach([0], [1, 2], [0], [0])


def planted_reach_engine(seed, n=48, t_len=5):
    """Steps with planted strongly connected structure plus noise.

    Step 0: a directed 10-cycle fed by the chain ``20 -> 21 -> 22 -> 0``.
    Step 1: empty.  Step 2: a second 10-cycle, entered from the first
    through ``5 -> 10`` and left through ``19 -> 30``.  Step 3: the
    two-node cycle ``40 <-> 41``.  Step 4: random edges only.  Steps 0,
    2 and 3 also carry a few random edges, so components merge and
    chain into one another differently per seed.
    """
    rng = np.random.default_rng(seed)
    ring = np.arange(10)
    planted = {
        0: ([*ring, 20, 21, 22], [*np.roll(ring, -1), 21, 22, 0]),
        1: ([], []),
        2: ([*(ring + 10), 5, 19], [*np.roll(ring + 10, -1), 10, 30]),
        3: ([40, 41], [41, 40]),
        4: ([], []),
    }
    src, dst, t = [], [], []
    for step in range(t_len):
        s, d = planted.get(step, ([], []))
        noise = 0 if step == 1 else int(rng.integers(3, 25))
        s = [*s, *rng.integers(0, n, size=noise)]
        d = [*d, *rng.integers(0, n, size=noise)]
        src += s
        dst += d
        t += [step] * len(s)
    store = TemporalEdgeStore(
        n, t_len, np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64), np.array(t, dtype=np.int64), None,
    )
    return GraphQueryEngine(DynamicAttributedGraph.from_store(store))


class TestTemporalReachCondensation:
    """The SCC-condensed kernel against the per-query BFS twin on
    graphs whose steps hold planted cycles, a chain feeding a cycle, an
    empty step, and ``src == dst`` queries, over windows of one step
    and of every step."""

    #: sources on the chain, both cycles, their exits and off-structure
    NODES = np.array([0, 3, 9, 10, 15, 19, 20, 21, 22, 30, 40, 41, 47])

    @pytest.mark.parametrize("seed", ROUNDS)
    @pytest.mark.parametrize("window", ["one_step", "all_steps"])
    def test_all_pairs_match_reference(self, seed, window):
        engine = planted_reach_engine(seed)
        t_len = engine.graph.num_timesteps
        u, v = np.meshgrid(self.NODES, self.NODES, indexing="ij")
        u, v = u.ravel(), v.ravel()
        if window == "one_step":
            t0 = np.repeat(np.arange(t_len), u.size)
            t1 = t0
            u, v = np.tile(u, t_len), np.tile(v, t_len)
        else:
            t0 = np.zeros(u.size, dtype=np.int64)
            t1 = np.full(u.size, t_len - 1)
        got = engine.batch_temporal_reach(u, v, t0, t1)
        np.testing.assert_array_equal(
            got, engine._reference_batch_temporal_reach(u, v, t0, t1)
        )
        assert got[u == v].all()

    @pytest.mark.parametrize("seed", ROUNDS)
    def test_random_windows_match_reference(self, seed):
        engine = planted_reach_engine(seed)
        _, _, _, src, dst, t0, t1 = traversal_columns(engine, seed + 5)
        np.testing.assert_array_equal(
            engine.batch_temporal_reach(src, dst, t0, t1),
            engine._reference_batch_temporal_reach(src, dst, t0, t1),
        )

    def test_planted_structure_answers(self):
        engine = planted_reach_engine(CHAOS_SEED)
        src = np.array([20, 3, 0, 20, 0, 40])
        dst = np.array([9, 2, 20, 30, 30, 41])
        t0 = np.array([0, 0, 0, 0, 1, 3])
        t1 = np.array([0, 0, 0, 2, 1, 3])
        got = engine.batch_temporal_reach(src, dst, t0, t1)
        # chain into the cycle, around the cycle, through both cycles
        # across the empty step; an empty step alone reaches nothing
        assert got[[0, 1, 3, 5]].all()
        assert not got[4]
        np.testing.assert_array_equal(
            got, engine._reference_batch_temporal_reach(src, dst, t0, t1)
        )

    def test_giant_component_is_one_frontier_pass(self, monkeypatch):
        """Crossing a 300-cycle takes O(1) frontier passes, not one per
        node: the whole cycle is one SCC of the step's condensation."""
        import repro.workloads.engine as engine_module

        n = 300
        ring = np.arange(n)
        store = TemporalEdgeStore(
            n, 1, ring, np.roll(ring, -1), np.zeros(n, dtype=np.int64), None
        )
        engine = GraphQueryEngine(DynamicAttributedGraph.from_store(store))
        calls = []
        real = engine_module._expand_frontier

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(engine_module, "_expand_frontier", counted)
        assert engine.batch_temporal_reach([0], [299], [0], [0]).tolist() == [
            True
        ]
        assert len(calls) <= 2


def _requests(queries, size=40):
    return [
        QueryRequest(queries[i:i + size])
        for i in range(0, len(queries), size)
    ]


class TestExecutorParity:
    """The same traversal workload is bit-identical on every executor."""

    @pytest.fixture(scope="class")
    def workload(self):
        engine = random_engine(CHAOS_SEED * 4241 + 5, n=50, m=400, t_len=5)
        config = WorkloadConfig(
            num_queries=240, mix=TRAVERSAL_MIX, seed=CHAOS_SEED + 11
        )
        queries = WorkloadGenerator(engine.graph, config).generate()
        reference = np.array([_run_query(engine, q) for q in queries])
        return engine.graph, queries, reference

    @pytest.mark.parametrize("executor,workers", [("serial", 1), ("thread", 3)])
    def test_query_service_executors(self, workload, executor, workers):
        graph, queries, reference = workload
        with track_dense_materializations() as materialized:
            with QueryService(
                graph, executor=executor, max_workers=workers
            ) as service:
                results = service.run_batch(_requests(queries))
        assert materialized() == 0
        assert all(r.ok for r in results)
        assert all(r.degraded_kinds == frozenset() for r in results)
        flat = np.concatenate([r.cardinalities for r in results])
        np.testing.assert_array_equal(flat, reference)

    def test_process_executor(self, workload):
        from repro.serving import ProcessQueryService

        graph, queries, reference = workload
        with ProcessQueryService(graph, num_workers=2) as tier:
            results = tier.run_batch(_requests(queries))
        assert all(r.ok for r in results)
        flat = np.concatenate([r.cardinalities for r in results])
        np.testing.assert_array_equal(flat, reference)


class TestAnalyticsExecutorParity:
    """The same analytics workload is bit-identical to the snapshot-based
    twins on every executor."""

    @pytest.fixture(scope="class")
    def workload(self):
        engine = random_engine(CHAOS_SEED * 4241 + 7, n=50, m=400, t_len=5)
        config = WorkloadConfig(
            num_queries=240, mix=ANALYTICS_MIX, seed=CHAOS_SEED + 13
        )
        queries = WorkloadGenerator(engine.graph, config).generate()
        reference = analytics_twin_cardinalities(engine, queries)
        return engine.graph, queries, reference

    @pytest.mark.parametrize("executor,workers", [("serial", 1), ("thread", 3)])
    def test_query_service_executors(self, workload, executor, workers):
        graph, queries, reference = workload
        with track_dense_materializations() as materialized:
            with QueryService(
                graph, executor=executor, max_workers=workers
            ) as service:
                results = service.run_batch(_requests(queries))
        assert materialized() == 0
        assert all(r.ok for r in results)
        assert all(r.degraded_kinds == frozenset() for r in results)
        flat = np.concatenate([r.cardinalities for r in results])
        np.testing.assert_array_equal(flat, reference)

    def test_process_executor(self, workload):
        from repro.serving import ProcessQueryService

        graph, queries, reference = workload
        with ProcessQueryService(graph, num_workers=2) as tier:
            results = tier.run_batch(_requests(queries))
        assert all(r.ok for r in results)
        assert all(r.degraded_kinds == frozenset() for r in results)
        flat = np.concatenate([r.cardinalities for r in results])
        np.testing.assert_array_equal(flat, reference)


class TestLiveEpochParity:
    def test_every_epoch_matches_bulk_oracle(self):
        """Traversal batches through the live epoch-pinned path equal a
        bulk-built store of each pinned epoch's sealed prefix."""
        rng = np.random.default_rng(CHAOS_SEED * 6007 + 3)
        n, t_len, m = 40, 5, 500
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        t = rng.integers(0, t_len, size=m)
        attrs = rng.normal(size=(t_len, n, 2))
        full = TemporalEdgeStore(n, t_len, src, dst, t, attrs)
        config = WorkloadConfig(
            num_queries=150, mix=TRAVERSAL_MIX, seed=CHAOS_SEED + 17
        )
        queries = WorkloadGenerator(
            DynamicAttributedGraph.from_store(full), config
        ).generate()
        requests = _requests(queries, size=30)

        builder = LiveStoreBuilder(n, t_len, attributes=attrs)
        order = np.argsort(t, kind="stable")
        builder.extend(src[order], dst[order], t[order])
        with LiveQueryService(builder, executor="serial") as service:
            for _ in range(t_len):
                builder.seal_step()
                epoch, results = service.run_batch(requests)
                assert epoch == builder.epoch
                keep = t < epoch
                oracle = GraphQueryEngine(
                    DynamicAttributedGraph.from_store(TemporalEdgeStore(
                        n, t_len, src[keep], dst[keep], t[keep], attrs
                    ))
                )
                for request, result in zip(requests, results):
                    assert result.ok
                    assert result.degraded_kinds == frozenset()
                    want = np.array(
                        [_run_query(oracle, q) for q in request.queries]
                    )
                    np.testing.assert_array_equal(
                        result.cardinalities, want
                    )

    def test_queries_against_open_steps(self):
        """Traversals touching unsealed (visible-but-empty) timesteps
        answer through the open-step CSR plans: empty expansions."""
        builder = LiveStoreBuilder(8, 4)
        builder.extend(
            np.array([0, 1]), np.array([1, 2]), np.array([0, 0])
        )
        builder.seal_step()  # epoch 1: t=0 sealed, t=1..3 open
        with LiveQueryService(builder, executor="serial") as service:
            queries = [
                Query(QueryKind.TWO_HOP, 0, (0, 2)),
                Query(QueryKind.TWO_HOP, 2, (0, 2)),  # open step: empty
                Query(QueryKind.TEMPORAL_REACH, 0, (0, 2, 0, 3)),
                Query(QueryKind.TEMPORAL_REACH, 1, (0, 2, 1, 3)),
            ]
            epoch, results = service.run_batch([QueryRequest(queries)])
        assert epoch == 1
        result = results[0]
        assert result.ok
        np.testing.assert_array_equal(
            result.cardinalities, [2, 0, 1, 0]
        )

    def test_analytics_every_epoch_matches_bulk_oracle(self):
        """Analytics batches through the live path — sealed steps on
        shared plans, open steps on per-epoch ``"open"`` plans — equal
        the snapshot-based twins on a bulk store of each epoch's
        prefix."""
        rng = np.random.default_rng(CHAOS_SEED * 6007 + 5)
        n, t_len, m = 40, 5, 500
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        t = rng.integers(0, t_len, size=m)
        attrs = rng.normal(size=(t_len, n, 2))
        full = TemporalEdgeStore(n, t_len, src, dst, t, attrs)
        config = WorkloadConfig(
            num_queries=150, mix=ANALYTICS_MIX, recent_bias=0.0,
            seed=CHAOS_SEED + 19,
        )
        queries = WorkloadGenerator(
            DynamicAttributedGraph.from_store(full), config
        ).generate()
        assert {q.t for q in queries} == set(range(t_len))
        requests = _requests(queries, size=30)

        builder = LiveStoreBuilder(n, t_len, attributes=attrs)
        order = np.argsort(t, kind="stable")
        builder.extend(src[order], dst[order], t[order])
        with LiveQueryService(builder, executor="serial") as service:
            for _ in range(t_len):
                builder.seal_step()
                epoch, results = service.run_batch(requests)
                keep = t < epoch
                oracle = GraphQueryEngine(
                    DynamicAttributedGraph.from_store(TemporalEdgeStore(
                        n, t_len, src[keep], dst[keep], t[keep], attrs
                    ))
                )
                for request, result in zip(requests, results):
                    assert result.ok
                    assert result.degraded_kinds == frozenset()
                    np.testing.assert_array_equal(
                        result.cardinalities,
                        analytics_twin_cardinalities(
                            oracle, request.queries
                        ),
                    )

    def test_analytics_against_open_steps(self):
        """Open steps are empty at the pinned epoch: 0 triangles and a
        top-k that is plain id order; sealed steps see their edges."""
        from repro.workloads import EpochPlanView, SnapshotPlanCache

        builder = LiveStoreBuilder(6, 3)
        builder.extend(
            np.array([0, 1, 2, 4]), np.array([1, 2, 0, 5]),
            np.array([0, 0, 0, 1]),
        )
        builder.seal_step()  # epoch 1: t=0 sealed, t=1..2 open
        epoch, store = builder.snapshot()
        view = EpochPlanView(SnapshotPlanCache(store), store, epoch)
        engine = GraphQueryEngine(
            DynamicAttributedGraph.from_store(store), plan_cache=view
        )
        assert engine.triangle_count(0) == 1
        assert engine.triangle_count(1) == 0  # 4 -> 5 is not sealed yet
        assert engine.degree_topk(0, 3) == [0, 1, 2]
        assert engine.degree_topk(1, 3) == [0, 1, 2]  # ties by id
        np.testing.assert_array_equal(
            engine.batch_triangle_counts([0, 1, 2, 0]), [1, 0, 0, 1]
        )
        offsets, ids = engine.batch_degree_topk([1, 2], [2, 6], "total")
        np.testing.assert_array_equal(offsets, [0, 2, 8])
        np.testing.assert_array_equal(ids, [0, 1, 0, 1, 2, 3, 4, 5])

        with LiveQueryService(builder, executor="serial") as service:
            queries = [
                Query(QueryKind.TRIANGLE_COUNT, 0, ()),
                Query(QueryKind.TRIANGLE_COUNT, 2, ()),
                Query(QueryKind.DEGREE_TOPK, 1, (10,)),
            ]
            epoch, results = service.run_batch([QueryRequest(queries)])
        assert epoch == 1
        assert results[0].ok
        np.testing.assert_array_equal(results[0].cardinalities, [1, 0, 6])
