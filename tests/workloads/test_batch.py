"""Parity tests: batched query kernels == per-query reference twins.

The contract under test (docs/workloads.md): every ``batch_*`` kernel
is bit-identical to its ``_reference_batch_*`` per-query loop, in
query order, for any mix of nodes/timesteps including duplicates —
dispatch style must never change an answer.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graph import DynamicAttributedGraph
from repro.graph.store import TemporalEdgeStore, track_dense_materializations
from repro.workloads import (
    GraphQueryEngine,
    Query,
    QueryKind,
    WorkloadConfig,
    WorkloadGenerator,
    run_queries_batched,
    serving_mix,
)
from repro.workloads.generator import _run_query


def random_graph(seed: int, n: int = 40, m: int = 300, t_len: int = 5,
                 f: int = 2) -> DynamicAttributedGraph:
    rng = np.random.default_rng(seed)
    store = TemporalEdgeStore(
        n, t_len,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(0, t_len, size=m),
        rng.normal(size=(t_len, n, f)) if f else None,
    )
    return DynamicAttributedGraph.from_store(store)


@pytest.fixture(params=[0, 1])
def engine(request):
    return GraphQueryEngine(random_graph(request.param))


def columns(engine, seed, size=120):
    rng = np.random.default_rng(seed)
    n = engine.graph.num_nodes
    t_len = engine.graph.num_timesteps
    return (
        rng.integers(0, n, size=size),
        rng.integers(0, n, size=size),
        rng.integers(0, t_len, size=size),
    )


def twin_cardinalities(engine, queries):
    """Per-query cardinalities from the ``_reference_batch_*`` twins."""
    out = np.zeros(len(queries), dtype=np.int64)
    groups = {}
    for i, q in enumerate(queries):
        groups.setdefault(q.kind, []).append(i)
    for kind, idx in groups.items():
        ts = [queries[i].t for i in idx]
        a = [[queries[i].args[j] for i in idx]
             for j in range(len(queries[idx[0]].args))]
        if kind == QueryKind.OUT_NEIGHBORS:
            out[idx] = engine._reference_batch_degrees(a[0], ts, "out")
        elif kind == QueryKind.IN_NEIGHBORS:
            out[idx] = engine._reference_batch_degrees(a[0], ts, "in")
        elif kind == QueryKind.HAS_EDGE:
            out[idx] = engine._reference_batch_has_edge(a[0], a[1], ts)
        elif kind == QueryKind.EDGE_WINDOW:
            out[idx] = engine._reference_batch_edge_window_counts(*a)
        elif kind == QueryKind.ATTRIBUTE_RANGE:
            out[idx] = engine._reference_batch_attribute_range_counts(
                ts, *a
            )
        elif kind == QueryKind.TWO_HOP:
            out[idx] = engine._reference_batch_two_hop(a[0], ts, a[1])
        elif kind == QueryKind.TEMPORAL_REACH:
            out[idx] = engine._reference_batch_temporal_reach(*a)
        elif kind == QueryKind.TRIANGLE_COUNT:
            out[idx] = engine._reference_batch_triangle_counts(ts)
        else:
            offsets, _ = engine._reference_batch_degree_topk(ts, a[0])
            out[idx] = np.diff(offsets)
    return out


class TestKernelParity:
    @pytest.mark.parametrize("direction", ["out", "in", "total"])
    def test_degrees(self, engine, direction):
        nodes, _, ts = columns(engine, 7)
        got = engine.batch_degrees(nodes, ts, direction)
        want = engine._reference_batch_degrees(nodes, ts, direction)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_neighbors(self, engine, direction):
        nodes, _, ts = columns(engine, 8)
        off, neigh = engine.batch_neighbors(nodes, ts, direction)
        ref_off, ref_neigh = engine._reference_batch_neighbors(
            nodes, ts, direction
        )
        assert np.array_equal(off, ref_off)
        assert np.array_equal(neigh, ref_neigh)

    def test_neighbors_rows_sorted_and_match_scalar(self, engine):
        nodes, _, ts = columns(engine, 9, size=30)
        off, neigh = engine.batch_neighbors(nodes, ts)
        for i, (v, t) in enumerate(zip(nodes.tolist(), ts.tolist())):
            row = neigh[off[i]:off[i + 1]].tolist()
            assert row == engine.out_neighbors(v, t)
            assert row == sorted(row)

    def test_has_edge(self, engine):
        src, dst, ts = columns(engine, 10)
        got = engine.batch_has_edge(src, dst, ts)
        assert got.dtype == bool
        assert np.array_equal(
            got, engine._reference_batch_has_edge(src, dst, ts)
        )
        # force some hits: replay actual store edges
        store = engine.graph.store
        if store.num_edges:
            got = engine.batch_has_edge(store.src, store.dst, store.t)
            assert got.all()

    def test_edge_window_counts(self, engine):
        src, dst, _ = columns(engine, 11)
        t_len = engine.graph.num_timesteps
        rng = np.random.default_rng(12)
        t0 = rng.integers(0, t_len, size=src.size)
        t1 = np.minimum(t0 + rng.integers(0, t_len, size=src.size), t_len - 1)
        got = engine.batch_edge_window_counts(src, dst, t0, t1)
        want = engine._reference_batch_edge_window_counts(src, dst, t0, t1)
        assert np.array_equal(got, want)

    def test_edge_window_full_range_matches_persistence(self, engine):
        src, dst, _ = columns(engine, 13, size=40)
        t_len = engine.graph.num_timesteps
        counts = engine.batch_edge_window_counts(
            src, dst, np.zeros(src.size, int), np.full(src.size, t_len - 1)
        )
        for u, v, c in zip(src.tolist(), dst.tolist(), counts.tolist()):
            assert c / t_len == engine.edge_persistence(u, v)

    def test_attribute_range_counts(self, engine):
        rng = np.random.default_rng(14)
        size = 60
        ts = rng.integers(0, engine.graph.num_timesteps, size=size)
        dims = rng.integers(0, engine.graph.num_attributes, size=size)
        lo = rng.normal(size=size)
        hi = lo + np.abs(rng.normal(size=size))
        got = engine.batch_attribute_range_counts(ts, dims, lo, hi)
        want = engine._reference_batch_attribute_range_counts(
            ts, dims, lo, hi
        )
        assert np.array_equal(got, want)

    def test_duplicate_queries_in_batch(self, engine):
        nodes = np.array([3, 3, 3, 5, 5, 3])
        ts = np.array([0, 0, 1, 1, 1, 0])
        got = engine.batch_degrees(nodes, ts)
        assert np.array_equal(got, engine._reference_batch_degrees(nodes, ts))
        off, neigh = engine.batch_neighbors(nodes, ts)
        ref_off, ref_neigh = engine._reference_batch_neighbors(nodes, ts)
        assert np.array_equal(off, ref_off)
        assert np.array_equal(neigh, ref_neigh)

    def test_scalar_inputs_broadcast(self, engine):
        assert engine.batch_degrees(0, 0).shape == (1,)
        assert engine.batch_has_edge(0, 1, 0).shape == (1,)


class TestKernelValidation:
    def test_empty_batch(self, engine):
        empty = np.zeros(0, dtype=np.int64)
        assert engine.batch_degrees(empty, empty).size == 0
        off, neigh = engine.batch_neighbors(empty, empty)
        assert np.array_equal(off, [0]) and neigh.size == 0
        assert engine.batch_has_edge(empty, empty, empty).size == 0
        assert engine.batch_edge_window_counts(
            empty, empty, empty, empty
        ).size == 0

    def test_length_mismatch_rejected(self, engine):
        with pytest.raises(ValueError, match="lengths differ"):
            engine.batch_degrees([1, 2], [0])
        with pytest.raises(ValueError, match="lengths differ"):
            engine.batch_has_edge([1], [2, 3], [0])

    def test_out_of_range_nodes_rejected(self, engine):
        n = engine.graph.num_nodes
        with pytest.raises(IndexError, match="node ids out of range"):
            engine.batch_degrees([0, n], [0, 0])
        with pytest.raises(IndexError, match="node ids out of range"):
            engine.batch_has_edge([-1], [0], [0])

    def test_out_of_range_timesteps_rejected(self, engine):
        t_len = engine.graph.num_timesteps
        with pytest.raises(IndexError, match="timesteps out of range"):
            engine.batch_degrees([0], [t_len])
        with pytest.raises(IndexError, match="timesteps out of range"):
            engine.batch_neighbors([0], [-1])

    def test_inverted_window_rejected(self, engine):
        with pytest.raises(ValueError, match="t1 < t0"):
            engine.batch_edge_window_counts([0], [1], [2], [1])

    def test_unknown_direction_rejected(self, engine):
        with pytest.raises(ValueError, match="direction"):
            engine.batch_degrees([0], [0], "sideways")
        with pytest.raises(ValueError, match="direction"):
            engine.batch_neighbors([0], [0], "total")


class TestWorkloadBatchedExecution:
    def make_queries(self, graph, mix=None, n=300, seed=3):
        config = WorkloadConfig(
            num_queries=n, mix=mix or serving_mix(), seed=seed
        )
        return WorkloadGenerator(graph, config).generate()

    def test_cardinalities_match_per_query_dispatch(self, engine):
        queries = self.make_queries(engine.graph)
        cards, seconds = run_queries_batched(engine, queries)
        ref = np.array([_run_query(engine, q) for q in queries])
        assert np.array_equal(cards, ref)
        assert set(seconds) == {q.kind.value for q in queries}

    def test_full_default_mix_with_fallback_kinds(self, engine):
        """A full default mix — including the per-snapshot analytics
        kinds (triangle_count, degree_topk) that used to fall back per
        query — matches the ``_reference_batch_*`` twins.  The scalar
        methods read the same plans as the kernels, so the
        snapshot-based twins are the independent anchor here."""
        queries = self.make_queries(
            engine.graph, mix=WorkloadConfig().mix, n=200
        )
        kinds = {q.kind for q in queries}
        assert {QueryKind.TRIANGLE_COUNT, QueryKind.DEGREE_TOPK} <= kinds
        cards, _ = run_queries_batched(engine, queries)
        assert np.array_equal(cards, twin_cardinalities(engine, queries))

    def test_no_dense_materialization(self, engine):
        queries = self.make_queries(engine.graph)
        with track_dense_materializations() as materialized:
            run_queries_batched(engine, queries)
        assert materialized() == 0

    def test_edge_window_queries_execute_both_paths(self, engine):
        t_len = engine.graph.num_timesteps
        queries = [
            Query(QueryKind.EDGE_WINDOW, 0, (1, 2, 0, t_len - 1)),
            Query(QueryKind.EDGE_WINDOW, 1, (0, 3, 1, 1)),
        ]
        cards, _ = run_queries_batched(engine, queries)
        assert np.array_equal(
            cards, [_run_query(engine, q) for q in queries]
        )


def _tests_query_kind(test: ast.expr) -> bool:
    """True when ``test`` compares something against a ``QueryKind``
    member (``kind == QueryKind.X`` or ``kind in (QueryKind.X, ...)``)."""
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare):
            continue
        for operand in [node.left, *node.comparators]:
            for leaf in getattr(operand, "elts", [operand]):
                if (isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "QueryKind"):
                    return True
    return False


def _kind_branching_functions():
    """``(name, calls a batch_* kernel)`` for every function in
    ``src/repro`` with an ``if`` that tests a ``QueryKind`` member."""
    src = Path(repro.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if not any(
                isinstance(node, (ast.If, ast.IfExp))
                and _tests_query_kind(node.test)
                for node in ast.walk(fn)
            ):
                continue
            calls_kernel = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith("batch_")
                for node in ast.walk(fn)
            )
            found.append((f"{path.relative_to(src)}::{fn.name}", calls_kernel))
    return found


def test_one_function_picks_each_kinds_batched_kernel():
    """Every batched path shares one kind -> kernel dispatch, and the
    per-kind column layout is a table, not another if-chain."""
    found = _kind_branching_functions()
    assert [name for name, kernel in found if kernel] == [
        "workloads/batch.py::_batch_kernel"
    ]
    # besides it: the per-query reference twin and the generator's
    # per-kind argument draws
    assert sorted(name for name, kernel in found if not kernel) == [
        "workloads/generator.py::_run_query",
        "workloads/generator.py::generate",
    ]
