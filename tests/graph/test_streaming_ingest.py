"""Bounded-memory streaming ingestion: round trips, budgets, wiring.

The contract under test: folding an event stream chunk by chunk
through :class:`StreamingStoreBuilder` produces *exactly* the store
that bulk construction (`TemporalEdgeStore(src, dst, t)`) produces —
chunk size, batching pattern and arrival order are invisible.
"""

import numpy as np
import pytest

from repro.graph import io as graph_io
from repro.graph.store import TemporalEdgeStore, merge_canonical_runs
from repro.graph.streams import StreamingStoreBuilder, ingest_stream
from repro.workloads import GraphQueryEngine

N, T = 40, 6


@pytest.fixture(scope="module")
def events():
    rng = np.random.default_rng(17)
    m = 12000
    return (
        rng.integers(0, N, size=m),
        rng.integers(0, N, size=m),
        rng.integers(0, T, size=m),
    )


@pytest.fixture(scope="module")
def bulk_store(events):
    return TemporalEdgeStore(N, T, *events)


class TestMergeCanonicalRuns:
    def test_merges_interleaved_runs(self):
        a = (np.array([0, 1]), np.array([1, 0]), np.array([0, 2]))
        b = (np.array([0, 5]), np.array([2, 1]), np.array([0, 1]))
        src, dst, t = merge_canonical_runs([a, b], num_nodes=6)
        ref = TemporalEdgeStore(
            6, 3,
            np.concatenate([a[0], b[0]]),
            np.concatenate([a[1], b[1]]),
            np.concatenate([a[2], b[2]]),
        )
        np.testing.assert_array_equal(src, ref.src)
        np.testing.assert_array_equal(dst, ref.dst)
        np.testing.assert_array_equal(t, ref.t)

    def test_deduplicates_across_runs(self):
        run = (np.array([1]), np.array([2]), np.array([0]))
        src, dst, t = merge_canonical_runs([run, run, run], num_nodes=4)
        assert src.size == 1

    def test_empty_input(self):
        src, dst, t = merge_canonical_runs([], num_nodes=4)
        assert src.size == dst.size == t.size == 0

    def test_kway_matches_bulk_sort(self, events, bulk_store):
        src, dst, t = events
        runs = []
        for lo in range(0, src.size, 1000):
            hi = lo + 1000
            chunk = TemporalEdgeStore(N, T, src[lo:hi], dst[lo:hi], t[lo:hi])
            runs.append((chunk.src, chunk.dst, chunk.t))
        m_src, m_dst, m_t = merge_canonical_runs(runs, N)
        np.testing.assert_array_equal(m_src, bulk_store.src)
        np.testing.assert_array_equal(m_dst, bulk_store.dst)
        np.testing.assert_array_equal(m_t, bulk_store.t)


class TestStreamingRoundTrip:
    @pytest.mark.parametrize("chunk", [256, 1000, 100000])
    def test_bulk_columns_any_chunk_size(self, events, bulk_store, chunk):
        store = ingest_stream(events, N, T, chunk_events=chunk)
        assert store == bulk_store

    def test_memory_budget_sizes_chunk(self, events, bulk_store):
        builder = StreamingStoreBuilder(
            N, T, memory_budget_bytes=64 * 1000
        )
        assert builder.chunk_events == 1000
        builder.extend(*events)
        assert builder.build() == bulk_store
        # tiered compaction keeps the run count logarithmic pre-build
        assert builder.num_runs <= 1

    def test_scalar_event_iterator(self, events):
        src, dst, t = (c[:600] for c in events)
        src, dst, t = np.asarray(src), np.asarray(dst), np.asarray(t)
        store = ingest_stream(
            iter(zip(src.tolist(), dst.tolist(), t.tolist())),
            N, T, chunk_events=256,
        )
        assert store == TemporalEdgeStore(N, T, src, dst, t)

    def test_batch_iterator(self, events, bulk_store):
        src, dst, t = events
        batches = (
            (src[lo:lo + 777], dst[lo:lo + 777], t[lo:lo + 777])
            for lo in range(0, src.size, 777)
        )
        assert ingest_stream(batches, N, T, chunk_events=512) == bulk_store

    def test_duplicates_across_chunks_collapse(self):
        src = np.array([1, 1, 1, 1] * 500)
        dst = np.array([2, 2, 2, 2] * 500)
        t = np.array([0, 0, 1, 1] * 500)
        store = ingest_stream((src, dst, t), 5, 2, chunk_events=256)
        assert store.num_edges == 2

    def test_self_loops_dropped(self):
        store = ingest_stream(
            (np.array([1, 2]), np.array([1, 3]), np.array([0, 0])), 5, 1
        )
        assert store.num_edges == 1

    def test_mixed_add_extend_respects_chunk_bound(self, events, bulk_store):
        """Interleaved add()/extend() keeps the sealed-chunk bound: a
        scalar flush can leave the buffer over-full, and extend must
        seal before slicing its batch (regression: negative slice
        arithmetic corrupted the buffer accounting)."""
        src, dst, t = events
        builder = StreamingStoreBuilder(N, T, chunk_events=256)
        builder.extend(src[:255], dst[:255], t[:255])  # buffered = 255
        pos = 255
        for _ in range(255):  # below the scalar flush threshold
            builder.add(int(src[pos]), int(dst[pos]), int(t[pos]))
            pos += 1
        # pre-fix: _flush_scalars raises buffered to 510 > chunk_events
        # and the slice arithmetic goes negative here
        builder.extend(src[pos:pos + 500], dst[pos:pos + 500], t[pos:pos + 500])
        pos += 500
        assert builder.events_ingested == pos
        assert builder.num_buffered < 2 * builder.chunk_events
        assert builder.build() == TemporalEdgeStore(
            N, T, src[:pos], dst[:pos], t[:pos]
        )

    def test_list_of_columns_is_bulk_not_scalars(self):
        """A 3-element *list* of column arrays must take the bulk path —
        even when each column happens to have length 3 (regression:
        columns misread as scalar events)."""
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 3])
        t = np.array([0, 0, 1])
        store = ingest_stream([src, dst, t], 5, 2)
        assert store == TemporalEdgeStore(5, 2, src, dst, t)

    def test_incremental_build_then_continue(self, events, bulk_store):
        src, dst, t = events
        half = src.size // 2
        builder = StreamingStoreBuilder(N, T, chunk_events=300)
        builder.extend(src[:half], dst[:half], t[:half])
        mid = builder.build()
        assert mid == TemporalEdgeStore(N, T, src[:half], dst[:half], t[:half])
        builder.extend(src[half:], dst[half:], t[half:])
        assert builder.build() == bulk_store

    def test_attributes_attached(self):
        attrs = np.random.default_rng(0).normal(size=(2, 5, 3))
        store = ingest_stream(
            (np.array([0]), np.array([1]), np.array([0])), 5, 2,
            attributes=attrs,
        )
        np.testing.assert_array_equal(store.attributes, attrs)

    def test_empty_stream(self):
        store = ingest_stream(iter([]), 5, 3)
        assert store.num_edges == 0 and store.num_timesteps == 3


class TestPeakMemory:
    """The documented bound: one chunk's canonicalization working set
    (``_BYTES_PER_EVENT`` an event) plus 2x the canonical columns (24
    bytes an output event), since the final unpack holds the 8-byte
    key run beside the three output columns.  Few duplicates is the
    heavy case: the runs are then the whole output (measured up to
    1.25x of it beyond the chunk term)."""

    @pytest.mark.parametrize(
        "n, t_len, chunk",
        [(600, 10, 4096), (600, 10, 16384), (60, 4, 16384)],
        ids=["few-dups-small-chunk", "few-dups", "many-dups"],
    )
    def test_traced_peak_within_bound(self, n, t_len, chunk):
        import tracemalloc

        from repro.graph.streams import _BYTES_PER_EVENT

        rng = np.random.default_rng(13)
        m = 120_000
        cols = tuple(
            rng.integers(0, hi, size=m) for hi in (n, n, t_len)
        )
        tracemalloc.start()
        try:
            store = ingest_stream(cols, n, t_len, chunk_events=chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = _BYTES_PER_EVENT * chunk + 2 * 24 * store.num_edges
        assert peak <= bound, f"peak {peak} > bound {bound}"


class TestValidation:
    def test_out_of_range_endpoint(self):
        builder = StreamingStoreBuilder(4, 2)
        with pytest.raises(ValueError):
            builder.extend(np.array([4]), np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            builder.add(0, 4, 0)

    def test_out_of_range_timestep(self):
        builder = StreamingStoreBuilder(4, 2)
        with pytest.raises(ValueError):
            builder.extend(np.array([0]), np.array([1]), np.array([2]))
        with pytest.raises(ValueError):
            builder.add(0, 1, -1)

    def test_mismatched_columns(self):
        builder = StreamingStoreBuilder(4, 2)
        with pytest.raises(ValueError):
            builder.extend(np.array([0, 1]), np.array([1]), np.array([0]))

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            StreamingStoreBuilder(4, 2, memory_budget_bytes=0)


class TestWiring:
    def test_event_log_io_round_trip(self, tmp_path, events, bulk_store):
        path = tmp_path / "events.npz"
        graph_io.save_events(path, *events, num_nodes=N, num_timesteps=T)
        graph = graph_io.load(path, memory_budget_bytes=64 * 1024)
        assert graph.store == bulk_store

    def test_event_log_with_attributes(self, tmp_path):
        attrs = np.random.default_rng(1).normal(size=(2, 4, 2))
        path = tmp_path / "events.npz"
        graph_io.save_events(
            path, [0], [1], [1], num_nodes=4, num_timesteps=2,
            attributes=attrs,
        )
        graph = graph_io.load(path)
        np.testing.assert_array_equal(graph.store.attributes, attrs)

    def test_graph_archives_still_load(self, tmp_path, bulk_store):
        path = tmp_path / "graph.npz"
        graph = bulk_store.to_graph()
        graph_io.save(graph, path)
        assert graph_io.load(path).store == bulk_store

    def test_engine_from_event_stream(self, events, bulk_store):
        engine = GraphQueryEngine.from_event_stream(
            events, N, T, memory_budget_bytes=32 * 1024
        )
        assert engine.graph.num_temporal_edges == bulk_store.num_edges
        csr_src, csr_dst = bulk_store.edges_at(0)
        u = int(csr_src[0])
        assert engine.out_neighbors(u, 0) == sorted(
            set(csr_dst[csr_src == u].tolist())
        )
