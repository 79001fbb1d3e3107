"""The store's one canonicalization: packed ``(t·N + src)·N + dst`` keys.

Every producer canonicalizes raw events by packing them into int64
keys, sorting and dropping adjacent duplicates.  These tests hold that
path to a ``np.lexsort`` reference kept here, the key splits to
``np.divmod``, and pin the guard that rejects universes whose keys
would overflow int64.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.graph.live import LiveStoreBuilder
from repro.graph.sparse import SparseDirectedGraph, csr_from_keys, split_keys
from repro.graph.store import (
    TemporalEdgeStore,
    TemporalEdgeStoreBuilder,
    _canonicalize_columns,
    _pack_keys,
    _unpack_keys,
    merge_canonical_runs,
)
from repro.graph.streams import StreamingStoreBuilder


def lexsort_canonical(src, dst, t, num_nodes):
    """Reference: loop-drop, ``(t, src, dst)`` lexsort, adjacent dedup."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    t = np.broadcast_to(np.asarray(t, dtype=np.int64), src.shape)
    keep = src != dst
    src, dst, t = src[keep], dst[keep], t[keep]
    order = np.lexsort((dst, src, t))
    src, dst, t = src[order], dst[order], t[order]
    fresh = np.ones(src.size, dtype=bool)
    fresh[1:] = (
        (src[1:] != src[:-1]) | (dst[1:] != dst[:-1]) | (t[1:] != t[:-1])
    )
    return src[fresh], dst[fresh], t[fresh]


def random_events(rng, n, t_len, m):
    return (
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
    )


def assert_columns_equal(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


class TestKeyedCanonicalization:
    @pytest.mark.parametrize(
        "n, t_len, m",
        [(1, 1, 20), (1, 5, 20), (7, 1, 300), (40, 6, 5000), (300, 3, 4000)],
        ids=["N=1,T=1", "N=1", "T=1", "dense-dups", "sparse"],
    )
    def test_matches_lexsort_reference(self, n, t_len, m):
        rng = np.random.default_rng(n * 1000 + t_len)
        events = random_events(rng, n, t_len, m)
        assert_columns_equal(
            _canonicalize_columns(*events, n),
            lexsort_canonical(*events, n),
        )

    def test_loops_and_duplicates_collapse(self):
        src = np.array([2, 0, 1, 1, 0, 2, 3])
        dst = np.array([2, 1, 0, 0, 1, 2, 0])
        t = np.array([1, 1, 0, 0, 1, 0, 0])
        got = _canonicalize_columns(src, dst, t, 4)
        assert_columns_equal(got, lexsort_canonical(src, dst, t, 4))
        assert_columns_equal(
            got, (np.array([1, 3, 0]), np.array([0, 0, 1]),
                  np.array([0, 0, 1]))
        )

    def test_only_loops(self):
        idx = np.arange(5)
        got = _canonicalize_columns(idx, idx, np.zeros(5, np.int64), 5)
        assert all(col.size == 0 for col in got)

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        got = _canonicalize_columns(empty, empty, empty, 6)
        assert all(col.size == 0 and col.dtype == np.int64 for col in got)

    @pytest.mark.parametrize("step", [0, 3])
    def test_scalar_timestep(self, step):
        rng = np.random.default_rng(5)
        src, dst, _ = random_events(rng, 25, 1, 2000)
        got = _canonicalize_columns(src, dst, step, 25)
        assert_columns_equal(got, lexsort_canonical(src, dst, step, 25))
        assert (got[2] == step).all()


def two_divmod_unpack(keys, num_nodes):
    """Reference: split ``dst`` then ``src`` off with two ``divmod``."""
    rest, dst = np.divmod(keys, num_nodes)
    t, src = np.divmod(rest, num_nodes)
    return src, dst, t


class TestUnpackKeys:
    """``t`` comes from step boundaries of the sorted keys, not a second
    ``divmod``; the columns must not change by a bit."""

    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize(
        "steps",
        [[], [0], [4], [0, 3, 7], [1, 2, 5, 6]],
        ids=["no-keys", "single-step", "single-late-step", "empty-gaps",
             "empty-first-step"],
    )
    def test_matches_two_divmod_reference(self, n, steps):
        rng = np.random.default_rng(n * 10 + len(steps))
        keys = np.unique(np.concatenate([np.zeros(0, np.int64)] + [
            _pack_keys(rng.integers(0, n, 60), rng.integers(0, n, 60), t, n)
            for t in steps
        ]))
        got = _unpack_keys(keys, n)
        assert_columns_equal(got, two_divmod_unpack(keys, n))
        assert sorted(set(got[2].tolist())) == steps

    def test_largest_keys(self):
        n = MAX_N
        keys = np.array([1, n - 1, n * (n - 1), n * n - 1], dtype=np.int64)
        assert_columns_equal(
            _unpack_keys(keys, n), two_divmod_unpack(keys, n)
        )


def divmod_csr(keys, n):
    """Reference: ``np.divmod`` split plus a row-count ``indptr``."""
    rows, cols = np.divmod(keys, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr.astype(np.int64), cols


class TestCsrFromKeys:
    """The floor-division split equals ``np.divmod`` bit for bit."""

    @pytest.mark.parametrize(
        "n, keys",
        [(5, []), (1, [0]), (9, [0, 8, 9, 40, 80]), (3037, [0, 3037**2 - 1])],
        ids=["no-keys", "single-node", "small", "largest-key"],
    )
    def test_matches_divmod_reference(self, n, keys):
        keys = np.asarray(keys, dtype=np.int64)
        assert_columns_equal(csr_from_keys(keys, n), divmod_csr(keys, n))

    def test_random_keys(self):
        rng = np.random.default_rng(3)
        n = 211
        keys = np.unique(rng.integers(0, n * n, 5000))
        assert_columns_equal(csr_from_keys(keys, n), divmod_csr(keys, n))

    def test_sparse_graph_edges_match_divmod(self):
        rng = np.random.default_rng(4)
        n = 57
        pairs = rng.integers(0, n, size=(3000, 2))
        keys = np.unique(pairs[pairs[:, 0] != pairs[:, 1]] @ [n, 1])
        got = SparseDirectedGraph(n, pairs).edge_array()
        np.testing.assert_array_equal(got, np.stack(np.divmod(keys, n), 1))

    def test_split_of_largest_int64_keys(self):
        keys = np.array([0, MAX_N - 1, MAX_N * MAX_N - 1], dtype=np.int64)
        assert_columns_equal(split_keys(keys, MAX_N), np.divmod(keys, MAX_N))


class TestMergeAgainstReference:
    def test_overlapping_runs(self):
        rng = np.random.default_rng(3)
        n, t_len = 20, 4
        runs, raw = [], []
        for _ in range(5):
            events = random_events(rng, n, t_len, 400)
            raw.append(events)
            runs.append(lexsort_canonical(*events, n))
        whole = tuple(np.concatenate(cols) for cols in zip(*raw))
        assert_columns_equal(
            merge_canonical_runs(runs, n), lexsort_canonical(*whole, n)
        )

    def test_single_and_empty_runs(self):
        run = lexsort_canonical(*random_events(
            np.random.default_rng(4), 9, 2, 200), 9)
        empty = (np.zeros(0, np.int64),) * 3
        assert_columns_equal(merge_canonical_runs([run], 9), run)
        assert_columns_equal(
            merge_canonical_runs([empty, run, empty], 9), run
        )

    def test_single_node_universe(self):
        empty = (np.zeros(0, np.int64),) * 3
        got = merge_canonical_runs([empty, empty], 1)
        assert all(col.size == 0 for col in got)


class TestCscAt:
    def test_matches_lexsort_reference(self):
        rng = np.random.default_rng(8)
        n, t_len = 50, 4
        events = random_events(rng, n, t_len, 4000)
        store = TemporalEdgeStore(n, t_len, *events)
        for step in range(t_len):
            src, dst = store.edges_at(step)
            order = np.lexsort((src, dst))
            indptr, rev_src = store.csc_at(step)
            np.testing.assert_array_equal(rev_src, src[order])
            np.testing.assert_array_equal(
                np.diff(indptr), np.bincount(dst, minlength=n)
            )


MAX_N = math.isqrt(2**63 - 1)


class TestKeyRangeGuard:
    """``T·N² > 2**63 - 1`` raises before anything is allocated."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda n, t: TemporalEdgeStore(n, t, [], [], []),
            lambda n, t: StreamingStoreBuilder(n, t),
            lambda n, t: LiveStoreBuilder(n, t),
        ],
        ids=["TemporalEdgeStore", "StreamingStoreBuilder", "LiveStoreBuilder"],
    )
    def test_overflowing_universe_rejected(self, make):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"N=4294967296, T=1\b"):
                make(2**32, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_stepwise_builder_rejects_overflowing_step(self):
        builder = TemporalEdgeStoreBuilder(2**32)
        with pytest.raises(ValueError, match="N=4294967296"):
            builder.add_step([], [])

    def test_largest_single_step_universe_accepted(self):
        store = TemporalEdgeStore(MAX_N, 1, [], [], [])
        assert store.num_nodes == MAX_N and store.num_edges == 0
        with pytest.raises(ValueError, match=f"N={MAX_N + 1}"):
            TemporalEdgeStore(MAX_N + 1, 1, [], [], [])
        with pytest.raises(ValueError, match="T=2"):
            TemporalEdgeStore(MAX_N, 2, [], [], [])

    def test_largest_keys_round_trip(self):
        src, dst = [MAX_N - 1, 0], [MAX_N - 2, MAX_N - 1]
        store = TemporalEdgeStore(MAX_N, 1, src, dst, [0, 0])
        np.testing.assert_array_equal(store.src, [0, MAX_N - 1])
        np.testing.assert_array_equal(store.dst, [MAX_N - 1, MAX_N - 2])
        assert (store.temporal_edge_keys() > 0).all()
