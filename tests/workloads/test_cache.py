"""SnapshotPlanCache: LRU semantics, budget sizing, thread safety."""

import threading

import numpy as np
import pytest

from repro.graph.dynamic import DynamicAttributedGraph
from repro.graph.store import TemporalEdgeStore
from repro.reliability import FaultPlan, fault_injector
from repro.workloads import GraphQueryEngine, SnapshotPlanCache
from repro.workloads.cache import _reach_plan


def plan_bytes(store, lookups):
    """Owned bytes of each plan ``lookups`` builds, in order."""
    probe = SnapshotPlanCache(store)
    sizes = []
    for lookup in lookups:
        before = probe.stats().resident_bytes
        lookup(probe)
        sizes.append(probe.stats().resident_bytes - before)
    assert min(sizes) > 0
    return sizes


@pytest.fixture
def store():
    rng = np.random.default_rng(0)
    n, m, t_len = 30, 200, 6
    return TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, 2)),
    )


def reference_csr(store, t):
    src, dst = store.edges_at(t)
    counts = np.bincount(src, minlength=store.num_nodes)
    indptr = np.zeros(store.num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst


class TestPlans:
    def test_csr_matches_store(self, store):
        cache = SnapshotPlanCache(store)
        for t in range(store.num_timesteps):
            indptr, indices = cache.csr(t)
            ref_indptr, ref_indices = store.csr_at(t)
            assert np.array_equal(indptr, ref_indptr)
            assert np.array_equal(indices, ref_indices)

    def test_csc_matches_store(self, store):
        cache = SnapshotPlanCache(store)
        for t in range(store.num_timesteps):
            indptr, indices = cache.csc(t)
            ref_indptr, ref_indices = store.csc_at(t)
            assert np.array_equal(indptr, ref_indptr)
            assert np.array_equal(indices, ref_indices)

    def test_does_not_populate_store_caches(self, store):
        cache = SnapshotPlanCache(store)
        cache.csr(0)
        cache.csc(0)
        # the plan cache holds both indexes; the store builds afresh
        assert cache.stats().resident_plans == 2
        assert store.csr_at(0)[0] is not store.csr_at(0)[0]

    def test_temporal_keys_sorted_strictly_increasing(self, store):
        keys = SnapshotPlanCache(store).temporal_keys()
        assert np.array_equal(keys, store.temporal_edge_keys())
        assert (np.diff(keys) > 0).all()

    def test_pair_keys_sorted(self, store):
        keys = SnapshotPlanCache(store).pair_keys()
        assert keys.size == store.num_edges
        assert (np.diff(keys) > 0).all()  # dedup makes them strict too

    def test_attribute_order_sorts_values(self, store):
        cache = SnapshotPlanCache(store)
        order = cache.attribute_order(2, 1)
        values = store.attributes[2, :, 1]
        assert (np.diff(values[order]) >= 0).all()

    def test_triangles_is_a_free_scalar_memo(self, store):
        cache = SnapshotPlanCache(store)
        for t in range(store.num_timesteps):
            assert cache.triangles(t) == store.sparse_at(t).triangle_count()
        assert cache.triangles(0) == store.sparse_at(0).triangle_count()
        stats = cache.stats()
        assert stats.misses == store.num_timesteps and stats.hits == 1
        assert stats.resident_bytes == 0  # a Python int owns no arrays

    @pytest.mark.parametrize("direction", ["out", "in", "total"])
    def test_degree_order_ranks_by_degree_then_id(self, store, direction):
        cache = SnapshotPlanCache(store)
        out_deg, in_deg = store.out_degrees_at(3), store.in_degrees_at(3)
        deg = {"out": out_deg, "in": in_deg, "total": out_deg + in_deg}[
            direction
        ]
        order = cache.degree_order(3, direction)
        assert order.dtype == np.int64
        expected = sorted(range(store.num_nodes), key=lambda v: (-deg[v], v))
        assert order.tolist() == expected
        assert cache.stats().resident_bytes == order.nbytes

    def test_degree_order_unknown_direction_rejected(self, store):
        with pytest.raises(ValueError, match="direction"):
            SnapshotPlanCache(store).degree_order(0, "sideways")


class TestReachPlan:
    """``reach(t)``: SCC labels plus the deduplicated condensation DAG."""

    def test_labels_and_dag_describe_the_condensation(self, store):
        cache = SnapshotPlanCache(store)
        for t in range(store.num_timesteps):
            labels, (indptr, indices) = cache.reach(t)
            src, dst = store.edges_at(t)
            assert labels.dtype == indptr.dtype == indices.dtype == np.int64
            # u, v share a label iff each reaches the other at step t
            reach = np.eye(store.num_nodes, dtype=bool)
            reach[src, dst] = True
            for _ in range(store.num_nodes.bit_length()):
                reach = reach | (
                    reach.astype(np.int64) @ reach.astype(np.int64) > 0
                )
            np.testing.assert_array_equal(
                labels[:, None] == labels[None, :], reach & reach.T
            )
            # one DAG edge per distinct crossing component pair
            cross = labels[src] != labels[dst]
            want = sorted(set(zip(labels[src][cross], labels[dst][cross])))
            got = [
                (a, int(b))
                for a in range(indptr.size - 1)
                for b in indices[indptr[a]:indptr[a + 1]]
            ]
            assert got == want
            assert indptr.size - 1 == labels.max() + 1
        stats = cache.stats()
        assert stats.resident_bytes == sum(
            _reach_plan(store, t)[1] for t in range(store.num_timesteps)
        )

    def test_invalidate_step_covers_reach_and_open_variant(self, store):
        cache = SnapshotPlanCache(store)
        cache.reach(1)
        cache.get_or_build(
            ("reach", 1, "open"), lambda: _reach_plan(store, 1)
        )
        cache.reach(2)
        assert cache.invalidate_step(1) == 2
        stats = cache.stats()
        assert stats.resident_plans == 1
        assert stats.resident_bytes == _reach_plan(store, 2)[1]

    def test_cache_fault_bypass_answers_reach(self, store):
        graph = DynamicAttributedGraph.from_store(store)
        rng = np.random.default_rng(3)
        n, t_len = store.num_nodes, store.num_timesteps
        src, dst = rng.integers(0, n, size=(2, 80))
        t0 = rng.integers(0, t_len, size=80)
        t1 = np.minimum(t0 + rng.integers(0, t_len, size=80), t_len - 1)
        want = GraphQueryEngine(graph)._reference_batch_temporal_reach(
            src, dst, t0, t1
        )
        engine = GraphQueryEngine(graph)
        with fault_injector.arm({"cache.plan": FaultPlan()}):
            got = engine.batch_temporal_reach(src, dst, t0, t1)
        np.testing.assert_array_equal(got, want)
        stats = engine.plans.stats()
        assert stats.bypasses > 0
        assert stats.hits == stats.misses == stats.resident_plans == 0


class TestLRU:
    def test_hits_and_misses_counted(self, store):
        cache = SnapshotPlanCache(store)
        cache.csr(0)
        cache.csr(0)
        cache.csr(1)
        stats = cache.stats()
        assert stats.misses == 2
        assert stats.hits == 1
        assert stats.resident_plans == 2
        assert 0 < stats.hit_rate < 1

    def test_budget_evicts_lru_first(self, store):
        # the budget fits any two of the three CSC plans, not all three
        sizes = plan_bytes(store, [lambda c, t=t: c.csc(t) for t in range(3)])
        cache = SnapshotPlanCache(store, memory_budget_bytes=sum(sizes) - 1)
        cache.csc(0)
        cache.csc(1)
        cache.csc(0)  # refresh 0 -> 1 is now LRU
        cache.csc(2)  # evicts 1
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.resident_plans == 2
        cache.csc(0)  # still resident
        assert cache.stats().hits == 2

    def test_memory_budget_bounds_resident_bytes(self, store):
        budget = 1024
        cache = SnapshotPlanCache(store, memory_budget_bytes=budget)
        for t in range(store.num_timesteps):
            cache.csc(t)
        stats = cache.stats()
        assert stats.evictions > 0
        # the newest plan may alone exceed the budget; with several
        # resident plans the total must respect it
        if stats.resident_plans > 1:
            assert stats.resident_bytes <= budget

    def test_newest_plan_survives_tiny_budget(self, store):
        cache = SnapshotPlanCache(store, memory_budget_bytes=1)
        for t in range(store.num_timesteps):
            indptr, indices = cache.csr(t)
            ref_indptr, ref_indices = reference_csr(store, t)
            assert np.array_equal(indptr, ref_indptr)
            assert np.array_equal(indices, ref_indices)
            assert cache.stats().resident_plans == 1

    def test_eviction_never_changes_results(self, store):
        bounded = SnapshotPlanCache(store, memory_budget_bytes=1)
        unbounded = SnapshotPlanCache(store)
        for t in list(range(store.num_timesteps)) * 2:
            a, b = bounded.csc(t), unbounded.csc(t)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert bounded.stats().evictions > 0
        assert unbounded.stats().evictions == 0

    def test_zero_copy_views_are_free(self, store):
        cache = SnapshotPlanCache(store)
        cache.csr(0)
        indptr, indices = cache.csr(0)
        owned = cache.stats().resident_bytes
        assert owned == indptr.nbytes  # indices is a store-column view
        assert indices.base is not None

    def test_clear_counts_evictions(self, store):
        cache = SnapshotPlanCache(store)
        cache.csr(0)
        cache.csr(1)
        cache.clear()
        stats = cache.stats()
        assert stats.resident_plans == 0
        assert stats.resident_bytes == 0
        assert stats.evictions == 2

    def test_invalid_settings_rejected(self, store):
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            SnapshotPlanCache(store, memory_budget_bytes=0)

    def test_repr_shows_residency(self, store):
        cache = SnapshotPlanCache(store, memory_budget_bytes=1 << 20)
        cache.csr(0)
        text = repr(cache)
        assert "plans=1" in text and "budget=" in text


class TestInvalidation:
    """invalidate_step / invalidate_store_plans: the live tier's hooks."""

    def test_invalidate_step_drops_only_that_timestep(self, store):
        cache = SnapshotPlanCache(store)
        for t in range(3):
            cache.csr(t)
            cache.csc(t)
            cache.attribute_order(t, 0)
        dropped = cache.invalidate_step(1)
        assert dropped == 3  # csr + csc + attr for t=1
        stats = cache.stats()
        assert stats.invalidations == 3
        assert stats.resident_plans == 6
        # t=0 and t=2 plans are still hits; t=1 rebuilds as misses
        cache.csr(0)
        cache.csr(2)
        assert cache.stats().hits == 2
        cache.csr(1)
        assert cache.stats().misses == 10

    def test_invalidate_step_keys_extension_variants(self, store):
        # the live tier's open-step keys share the head and timestep
        cache = SnapshotPlanCache(store)

        def build():
            indptr, indices = store.csr_at(2)
            return (indptr, indices), indptr.nbytes

        cache.get_or_build(("csr", 2, "open"), build)
        cache.csr(2)
        assert cache.invalidate_step(2) == 2
        assert cache.stats().resident_plans == 0

    def test_invalidate_step_covers_analytics_plans(self, store):
        cache = SnapshotPlanCache(store)
        for t in (1, 2):
            cache.triangles(t)
            cache.degree_order(t, "out")
            cache.degree_order(t, "in")
        assert cache.invalidate_step(1) == 3
        assert cache.stats().resident_plans == 3
        cache.triangles(2)
        assert cache.stats().hits == 1

    def test_invalidate_store_plans_spares_step_plans(self, store):
        cache = SnapshotPlanCache(store)
        cache.temporal_keys()
        cache.pair_keys()
        cache.csr(0)
        assert cache.invalidate_store_plans() == 2
        stats = cache.stats()
        assert stats.invalidations == 2
        assert stats.resident_plans == 1
        cache.csr(0)
        assert cache.stats().hits == 1

    def test_owned_bytes_accounting_exact(self, store):
        cache = SnapshotPlanCache(store)
        cache.csc(0)
        cache.csc(1)
        cache.temporal_keys()
        before = cache.stats().resident_bytes
        assert before > 0
        cache.invalidate_step(0)
        cache.invalidate_store_plans()
        after = cache.stats().resident_bytes
        # what remains is exactly the csc(1) plan's owned bytes
        cache.clear()
        cache.csc(1)
        assert after == cache.stats().resident_bytes

    def test_invalidation_never_changes_results(self, store):
        cache = SnapshotPlanCache(store)
        pristine = SnapshotPlanCache(store)
        rng = np.random.default_rng(7)
        for _ in range(60):
            t = int(rng.integers(0, store.num_timesteps))
            roll = rng.random()
            if roll < 0.2:
                cache.invalidate_step(t)
            elif roll < 0.3:
                cache.invalidate_store_plans()
            a, b = cache.csc(t), pristine.csc(t)
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])
            assert np.array_equal(cache.temporal_keys(),
                                  pristine.temporal_keys())
        assert cache.stats().invalidations > 0

    def test_budget_never_exceeded_mid_invalidation(self, store):
        budget = 4096
        cache = SnapshotPlanCache(store, memory_budget_bytes=budget)
        rng = np.random.default_rng(11)
        for _ in range(80):
            t = int(rng.integers(0, store.num_timesteps))
            cache.csc(t)
            if rng.random() < 0.3:
                cache.invalidate_step(int(rng.integers(0,
                                                       store.num_timesteps)))
            stats = cache.stats()
            if stats.resident_plans > 1:
                assert stats.resident_bytes <= budget
            assert stats.resident_bytes >= 0

    def test_invalidating_absent_keys_is_a_noop(self, store):
        cache = SnapshotPlanCache(store)
        assert cache.invalidate_step(0) == 0
        assert cache.invalidate_store_plans() == 0
        stats = cache.stats()
        assert stats.invalidations == 0

    def test_reconciliation_identity_with_invalidations(self, store):
        # the budget holds about four of the CSR/CSC plans
        sizes = plan_bytes(
            store,
            [
                lookup
                for t in range(store.num_timesteps)
                for lookup in (
                    lambda c, t=t: c.csr(t), lambda c, t=t: c.csc(t)
                )
            ],
        )
        cache = SnapshotPlanCache(
            store, memory_budget_bytes=4 * sum(sizes) // len(sizes)
        )
        rng = np.random.default_rng(13)
        for _ in range(100):
            t = int(rng.integers(0, store.num_timesteps))
            cache.csr(t)
            cache.csc(t)
            if rng.random() < 0.25:
                cache.invalidate_step(t)
        stats = cache.stats()
        assert stats.evictions > 0 and stats.invalidations > 0
        assert stats.resident_plans == (
            stats.misses - stats.evictions - stats.invalidations
        )


class TestThreadSafety:
    def test_concurrent_lookups_consistent(self, store):
        cache = SnapshotPlanCache(store, memory_budget_bytes=4096)
        expected = {
            t: reference_csr(store, t) for t in range(store.num_timesteps)
        }
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                t = int(rng.integers(0, store.num_timesteps))
                indptr, indices = cache.csr(t)
                if not (
                    np.array_equal(indptr, expected[t][0])
                    and np.array_equal(indices, expected[t][1])
                ):
                    errors.append(t)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        stats = cache.stats()
        assert stats.hits + stats.misses == 800
