"""Correctness tests for the graph query engine."""

import numpy as np
import pytest

from repro.graph import DynamicAttributedGraph, GraphSnapshot
from repro.workloads import GraphQueryEngine


def build_graph():
    """Two snapshots over 6 nodes with known structure.

    t=0: 0->1, 1->2, 2->0 (directed triangle), 3->4
    t=1: 0->1, 4->5
    """
    n = 6
    a0 = np.zeros((n, n))
    for u, v in [(0, 1), (1, 2), (2, 0), (3, 4)]:
        a0[u, v] = 1.0
    a1 = np.zeros((n, n))
    for u, v in [(0, 1), (4, 5)]:
        a1[u, v] = 1.0
    attrs0 = np.arange(n, dtype=float)[:, None] * np.array([[1.0, -1.0]])
    attrs1 = attrs0 + 10.0
    return DynamicAttributedGraph(
        [GraphSnapshot(a0, attrs0), GraphSnapshot(a1, attrs1)]
    )


@pytest.fixture
def engine():
    return GraphQueryEngine(build_graph())


class TestLookups:
    def test_out_neighbors(self, engine):
        assert engine.out_neighbors(0, 0) == [1]
        assert engine.out_neighbors(3, 0) == [4]
        assert engine.out_neighbors(3, 1) == []

    def test_in_neighbors(self, engine):
        assert engine.in_neighbors(0, 0) == [2]
        assert engine.in_neighbors(1, 1) == [0]

    def test_has_edge(self, engine):
        assert engine.has_edge(0, 1, 0)
        assert not engine.has_edge(1, 0, 0)
        assert not engine.has_edge(3, 4, 1)

    def test_bad_node_rejected(self, engine):
        with pytest.raises(IndexError, match="node"):
            engine.out_neighbors(99, 0)

    def test_bad_timestep_rejected(self, engine):
        with pytest.raises(IndexError, match="timestep"):
            engine.out_neighbors(0, 5)


class TestTraversals:
    def test_k_hop_directed(self, engine):
        assert engine.k_hop(0, 0, 1) == {1}
        assert engine.k_hop(0, 0, 2) == {1, 2}
        assert engine.k_hop(0, 0, 3) == {1, 2}  # cycle closes back to 0

    def test_k_hop_undirected_reaches_more(self, engine):
        directed = engine.k_hop(4, 0, 2, directed=True)
        undirected = engine.k_hop(4, 0, 2, directed=False)
        assert directed == set()
        assert 3 in undirected

    def test_k_hop_zero(self, engine):
        assert engine.k_hop(0, 0, 0) == set()

    def test_k_hop_negative_rejected(self, engine):
        with pytest.raises(ValueError, match="k must"):
            engine.k_hop(0, 0, -1)

    def test_k_hop_monotone_in_k(self, engine):
        prev = set()
        for k in range(4):
            cur = engine.k_hop(0, 0, k)
            assert prev <= cur
            prev = cur


class TestAnalytics:
    def test_triangle_count(self, engine):
        # directed 3-cycle symmetrizes to one undirected triangle
        assert engine.triangle_count(0) == 1
        assert engine.triangle_count(1) == 0

    def test_degree_topk(self, engine):
        top = engine.degree_topk(0, 2, direction="total")
        # nodes 0,1,2 all have total degree 2; ties break by id
        assert top == [0, 1]

    def test_degree_topk_directions(self, engine):
        assert engine.degree_topk(0, 1, direction="out")[0] in {0, 1, 2, 3}
        with pytest.raises(ValueError, match="direction"):
            engine.degree_topk(0, 1, direction="sideways")

    def test_attribute_range(self, engine):
        # dim 0 at t=0 holds values 0..5
        assert engine.attribute_range(0, 0, 1.5, 3.5) == [2, 3]
        assert engine.attribute_range(0, 0, -10, 10) == [0, 1, 2, 3, 4, 5]

    def test_attribute_range_empty(self, engine):
        assert engine.attribute_range(0, 0, 100, 200) == []

    def test_attribute_range_bad_dim(self, engine):
        with pytest.raises(IndexError, match="attribute"):
            engine.attribute_range(0, 7, 0, 1)


class TestDenseBackedAnalytics:
    """Analytics answer from store plans: one build per timestep, not
    an ``np.nonzero`` rescan per query."""

    def test_triangle_count_builds_one_plan_per_step(self):
        from repro.graph import properties as props
        from repro.workloads import Query, QueryKind, run_queries_batched

        graph = build_graph()
        engine = GraphQueryEngine(graph)
        queries = [Query(QueryKind.TRIANGLE_COUNT, 0, ())] * 50
        cards, _ = run_queries_batched(engine, queries)
        assert cards.tolist() == [props.triangle_count(graph[0])] * 50
        for _ in range(50):
            assert engine.triangle_count(0) == 1
        stats = engine.plans.stats()
        assert stats.misses == 1 and stats.hits == 50


class TestTemporal:
    def test_reachable_within_one_snapshot(self, engine):
        assert engine.temporal_reachable(0, 2, 0, 0)

    def test_reachable_across_snapshots(self, engine):
        # 3->4 at t=0, then 4->5 at t=1
        assert engine.temporal_reachable(3, 5, 0, 1)
        assert not engine.temporal_reachable(3, 5, 1, 1)

    def test_time_respect_blocks_backwards(self, engine):
        # 4->5 only at t=1; restricting to t=0 fails
        assert not engine.temporal_reachable(4, 5, 0, 0)

    def test_self_reachable(self, engine):
        assert engine.temporal_reachable(2, 2, 0, 0)

    def test_empty_window_rejected(self, engine):
        with pytest.raises(ValueError, match="window"):
            engine.temporal_reachable(0, 1, 1, 0)

    def test_edge_persistence(self, engine):
        assert engine.edge_persistence(0, 1) == 1.0
        assert engine.edge_persistence(3, 4) == 0.5
        assert engine.edge_persistence(5, 0) == 0.0

    def test_edge_window_count(self, engine):
        assert engine.edge_window_count(0, 1, 0, 1) == 2
        assert engine.edge_window_count(3, 4, 0, 1) == 1
        assert engine.edge_window_count(3, 4, 1, 1) == 0

    def test_edge_window_count_rejects_empty_window(self, engine):
        with pytest.raises(ValueError, match="window"):
            engine.edge_window_count(0, 1, 1, 0)


class TestEdgeCases:
    """Empty stores, bad timesteps, duplicate batch entries, eviction."""

    def make_empty_engine(self, **kwargs):
        from repro.graph.store import TemporalEdgeStore

        store = TemporalEdgeStore(5, 3, [], [], [])
        return GraphQueryEngine(
            DynamicAttributedGraph.from_store(store), **kwargs
        )

    def test_empty_store_scalar_queries(self):
        engine = self.make_empty_engine()
        assert engine.out_neighbors(0, 0) == []
        assert engine.in_neighbors(4, 2) == []
        assert not engine.has_edge(0, 1, 1)
        assert engine.k_hop(0, 0, 3) == set()
        assert engine.triangle_count(0) == 0
        assert engine.edge_persistence(0, 1) == 0.0
        assert not engine.temporal_reachable(0, 1, 0, 2)

    def test_empty_store_batched_kernels(self):
        import numpy as np

        engine = self.make_empty_engine()
        nodes = np.array([0, 1, 4, 1])
        ts = np.array([0, 1, 2, 0])
        assert np.array_equal(engine.batch_degrees(nodes, ts), [0, 0, 0, 0])
        off, neigh = engine.batch_neighbors(nodes, ts)
        assert np.array_equal(off, [0, 0, 0, 0, 0]) and neigh.size == 0
        assert not engine.batch_has_edge(nodes, nodes[::-1], ts).any()
        assert np.array_equal(
            engine.batch_edge_window_counts(
                nodes, nodes[::-1], np.zeros(4, int), np.full(4, 2)
            ),
            [0, 0, 0, 0],
        )

    def test_out_of_range_timestep_scalar_and_batched(self, engine):
        with pytest.raises(IndexError, match="timestep"):
            engine.edge_window_count(0, 1, 0, 9)
        with pytest.raises(IndexError, match="timesteps out of range"):
            engine.batch_degrees([0], [2])
        with pytest.raises(IndexError, match="timesteps out of range"):
            engine.batch_has_edge([0], [1], [-1])

    def test_duplicate_node_ids_in_batch(self, engine):
        import numpy as np

        nodes = np.array([0, 0, 0, 3, 3])
        ts = np.array([0, 1, 0, 0, 0])
        assert np.array_equal(engine.batch_degrees(nodes, ts), [1, 1, 1, 1, 1])
        off, neigh = engine.batch_neighbors(nodes, ts)
        assert np.array_equal(np.diff(off), [1, 1, 1, 1, 1])
        assert np.array_equal(neigh, [1, 1, 1, 4, 4])

    def test_cache_eviction_correctness(self):
        """A budget so small every query misses changes nothing."""
        import numpy as np

        graph = build_graph()
        starved = GraphQueryEngine(graph, cache_memory_budget_bytes=1)
        unbounded = GraphQueryEngine(graph)
        rng = np.random.default_rng(0)
        for _ in range(40):
            v, u = rng.integers(0, graph.num_nodes, size=2)
            t = int(rng.integers(0, graph.num_timesteps))
            assert starved.out_neighbors(v, t) == unbounded.out_neighbors(v, t)
            assert starved.in_neighbors(v, t) == unbounded.in_neighbors(v, t)
            assert starved.has_edge(u, v, t) == unbounded.has_edge(u, v, t)
            assert starved.attribute_range(t, 0, -3.0, 3.0) == (
                unbounded.attribute_range(t, 0, -3.0, 3.0)
            )
        stats = starved.plans.stats()
        assert stats.evictions > 0
        assert stats.resident_plans == 1  # only the newest plan survives

    def test_mismatched_plan_cache_rejected(self, engine):
        from repro.workloads import SnapshotPlanCache

        other = build_graph()
        foreign = SnapshotPlanCache(other.store)
        with pytest.raises(ValueError, match="different store"):
            GraphQueryEngine(build_graph(), plan_cache=foreign)

    def test_shared_plan_cache_across_engines(self):
        from repro.workloads import SnapshotPlanCache

        graph = build_graph()
        cache = SnapshotPlanCache(graph.store)
        a = GraphQueryEngine(graph, plan_cache=cache)
        b = GraphQueryEngine(graph, plan_cache=cache)
        a.out_neighbors(0, 0)
        b.out_neighbors(0, 0)
        assert cache.stats().hits == 1  # b reused a's plan
