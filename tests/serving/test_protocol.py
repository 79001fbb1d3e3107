"""Columnar wire protocol: encode/decode inverse, execution parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.reliability import FaultPlan, fault_injector
from repro.serving import decode_queries, encode_queries
from repro.serving.protocol import (
    KIND_CODES,
    ColumnarQueryRequest,
    execute_encoded,
)
from repro.workloads import (
    GraphQueryEngine,
    QueryKind,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.workloads.batch import ARG_SLOTS, run_queries_batched
from repro.workloads.generator import _run_query


def test_kind_codes_are_the_enum_definition_order():
    # the integer codes are the wire surface: appending new kinds is
    # fine, reordering existing ones breaks deployed manifests
    assert KIND_CODES == tuple(QueryKind)
    assert [k.value for k in KIND_CODES[:5]] == [
        "out_neighbors", "in_neighbors", "has_edge", "two_hop",
        "triangle_count",
    ]


def test_encode_decode_is_the_identity(serving_graph):
    # the default analytics mix exercises the kinds serving_mix skips
    # (traversals, pattern counts) — cover every kind's arg packing
    for config in (
        WorkloadConfig(num_queries=300, seed=5),
        WorkloadConfig(num_queries=300, seed=9),
    ):
        queries = WorkloadGenerator(serving_graph, config).generate()
        enc = encode_queries(queries)
        assert len(enc) == len(queries)
        assert decode_queries(enc) == queries


def test_encode_decode_serving_mix(serving_queries):
    assert decode_queries(encode_queries(serving_queries)) == serving_queries


def test_columns_round_trip(serving_queries):
    enc = encode_queries(serving_queries)
    rebuilt = ColumnarQueryRequest.from_columns(enc.columns())
    assert decode_queries(rebuilt) == serving_queries


def test_request_validation(serving_queries):
    enc = encode_queries(serving_queries[:4])
    with pytest.raises(ValueError):
        ColumnarQueryRequest(
            kinds=enc.kinds[:2], ts=enc.ts, a0=enc.a0, a1=enc.a1,
            a2=enc.a2, a3=enc.a3, f0=enc.f0, f1=enc.f1,
        )
    with pytest.raises(ValueError):
        encode_queries([])
    bad = enc.kinds.copy()
    bad[0] = len(KIND_CODES)
    with pytest.raises(ValueError):
        ColumnarQueryRequest(
            kinds=bad, ts=enc.ts, a0=enc.a0, a1=enc.a1,
            a2=enc.a2, a3=enc.a3, f0=enc.f0, f1=enc.f1,
        )


def test_execute_encoded_matches_per_query_dispatch(serving_graph):
    config = WorkloadConfig(num_queries=300, seed=7)
    queries = WorkloadGenerator(serving_graph, config).generate()
    engine = GraphQueryEngine(serving_graph)
    reference = np.array([_run_query(engine, q) for q in queries])
    cards, seconds, degraded = execute_encoded(
        engine, encode_queries(queries)
    )
    np.testing.assert_array_equal(cards, reference)
    assert degraded == frozenset()
    assert set(seconds) == {q.kind.value for q in queries}


def test_execute_encoded_degrades_per_query_on_kernel_fault(
    serving_graph, serving_queries
):
    engine = GraphQueryEngine(serving_graph)
    enc = encode_queries(serving_queries)
    reference, _, _ = execute_encoded(engine, enc)
    with fault_injector.arm(
        {"query.batch_kernel": FaultPlan(kind="error", rate=1.0)}, seed=1
    ):
        cards, _, degraded = execute_encoded(engine, enc, degrade=True)
    np.testing.assert_array_equal(cards, reference)
    assert QueryKind.HAS_EDGE.value in degraded
    with fault_injector.arm(
        {"query.batch_kernel": FaultPlan(kind="error", rate=1.0)}, seed=1
    ):
        with pytest.raises(Exception):
            execute_encoded(engine, enc, degrade=False)


@pytest.fixture
def every_kind_queries(serving_graph):
    """A mix over ``tuple(QueryKind)`` itself, kinds interleaved."""
    config = WorkloadConfig(
        num_queries=270, mix={k: 1.0 for k in tuple(QueryKind)}, seed=3
    )
    queries = WorkloadGenerator(serving_graph, config).generate()
    assert {q.kind for q in queries} == set(QueryKind)
    return queries


def test_every_kind_has_a_slot_entry():
    assert set(ARG_SLOTS) == set(QueryKind)


def test_every_kind_round_trips_through_the_columns(every_kind_queries):
    enc = encode_queries(every_kind_queries)
    assert decode_queries(enc) == every_kind_queries
    ranges = [q for q in every_kind_queries
              if q.kind == QueryKind.ATTRIBUTE_RANGE]
    mask = enc.kinds == KIND_CODES.index(QueryKind.ATTRIBUTE_RANGE)
    np.testing.assert_array_equal(enc.f0[mask], [q.args[1] for q in ranges])
    np.testing.assert_array_equal(enc.f1[mask], [q.args[2] for q in ranges])
    assert not all(float(lo).is_integer() for lo in enc.f0[mask])


def test_every_kind_agrees_across_entry_points(
    serving_graph, every_kind_queries
):
    engine = GraphQueryEngine(serving_graph)
    reference = [_run_query(engine, q) for q in every_kind_queries]
    batched, _ = run_queries_batched(engine, every_kind_queries)
    encoded, _, degraded = execute_encoded(
        engine, encode_queries(every_kind_queries)
    )
    np.testing.assert_array_equal(batched, reference)
    np.testing.assert_array_equal(encoded, reference)
    assert degraded == frozenset()


def test_kernel_fault_keys_arrive_in_first_appearance_order(
    serving_graph, every_kind_queries, monkeypatch
):
    engine = GraphQueryEngine(serving_graph)
    fired = []
    monkeypatch.setattr(
        fault_injector, "fire",
        lambda point, key=None: fired.append((point, key)),
    )
    first_seen = list(dict.fromkeys(q.kind.value for q in every_kind_queries))
    run_queries_batched(engine, every_kind_queries)
    execute_encoded(engine, encode_queries(every_kind_queries))
    kernel_keys = [key for point, key in fired
                   if point == "query.batch_kernel"]
    assert kernel_keys == first_seen * 2

def test_empty_query_list_returns_empty_arrays(serving_graph):
    engine = GraphQueryEngine(serving_graph)
    cards, seconds = run_queries_batched(engine, [])
    assert cards.dtype == np.int64 and cards.shape == (0,)
    assert seconds == {}
