"""Tests for continuous-time interaction streams and discretization."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DynamicAttributedGraph, GraphSnapshot
from repro.graph.streams import (
    InteractionStream,
    discretize,
    equal_count_windows,
    session_windows,
    snapshot_density_profile,
    to_stream,
    uniform_windows,
)

POLICIES = (uniform_windows, equal_count_windows, session_windows)


def simple_stream():
    return InteractionStream(
        4, [0, 1, 2, 3, 0], [1, 2, 3, 0, 2], [0.0, 0.4, 1.1, 2.9, 3.0]
    )


class TestInteractionStream:
    def test_columns_sorted_by_time(self):
        s = InteractionStream(3, [0, 1, 2], [1, 2, 0], [5.0, 1.0, 3.0])
        assert s.time.tolist() == [1.0, 3.0, 5.0]
        assert s.src.tolist() == [1, 2, 0]
        assert s.dst.tolist() == [2, 0, 1]
        assert (s.src.dtype, s.dst.dtype, s.time.dtype) == (
            np.int64, np.int64, np.float64
        )

    def test_ties_keep_input_order(self):
        s = InteractionStream(4, [3, 0, 1, 2], [0, 1, 2, 3], [1.0, 0.0, 1.0, 0.0])
        assert list(s) == [(0, 1, 0.0), (2, 3, 0.0), (3, 0, 1.0), (1, 2, 1.0)]

    def test_columns_are_read_only(self):
        s = simple_stream()
        with pytest.raises(ValueError):
            s.time[0] = 9.0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop event on node 1"):
            InteractionStream(3, [1], [1], [0.0])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match=r"endpoints \(0, 3\) out of range"):
            InteractionStream(3, [0], [3], [0.0])
        with pytest.raises(ValueError, match=r"endpoints \(-1, 2\) out of range"):
            InteractionStream(3, [-1], [2], [0.0])

    def test_rejects_nan_timestamp(self):
        with pytest.raises(ValueError, match="non-finite timestamp nan"):
            InteractionStream(3, [0], [1], [float("nan")])

    def test_error_names_first_offending_event(self):
        # event 1 is a self-loop, event 2 out of range: the self-loop wins
        with pytest.raises(ValueError, match="self-loop event on node 2"):
            InteractionStream(3, [0, 2, 0], [1, 2, 5], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite timestamp inf"):
            InteractionStream(3, [0, 0, 1], [1, 2, 1], [0.0, np.inf, 2.0])

    def test_rejects_column_length_mismatch(self):
        with pytest.raises(ValueError, match="column lengths differ"):
            InteractionStream(3, [0, 1], [1], [0.0, 1.0])

    def test_rejects_nonpositive_node_count(self):
        with pytest.raises(ValueError, match="positive"):
            InteractionStream(0)

    def test_len_and_iter(self):
        s = simple_stream()
        assert len(s) == 5
        first = list(s)[0]
        assert first == (0, 1, 0.0)
        assert [type(x) for x in first] == [int, int, float]

    def test_start_end_time(self):
        s = simple_stream()
        assert s.start_time == 0.0
        assert s.end_time == 3.0

    def test_empty_stream_has_no_span(self):
        s = InteractionStream(2)
        with pytest.raises(ValueError, match="empty"):
            _ = s.start_time
        with pytest.raises(ValueError, match="empty"):
            _ = s.end_time
        assert s.statistics().time_span == 0.0
        assert s.statistics().unique_pairs == 0

    def test_statistics(self):
        stats = simple_stream().statistics()
        assert stats.num_nodes == 4
        assert stats.num_events == 5
        assert stats.time_span == pytest.approx(3.0)
        assert stats.unique_pairs == 5
        assert "events=5" in str(stats)

    def test_unique_pairs_counts_repeats_once(self):
        s = InteractionStream(3, [0, 0, 1, 0], [1, 1, 0, 2], [0.0, 1.0, 2.0, 3.0])
        assert s.statistics().unique_pairs == 3

    def test_between_half_open(self):
        s = simple_stream()
        window = s.between(0.4, 3.0)
        assert [t for _, _, t in window] == [0.4, 1.1, 2.9]

    def test_between_empty_range(self):
        assert len(simple_stream().between(10.0, 20.0)) == 0

    def test_merged(self):
        a = InteractionStream(3, [0], [1], [0.0])
        b = InteractionStream(3, [1], [2], [1.0])
        m = a.merged(b)
        assert len(m) == 2
        assert m.end_time == 1.0

    def test_merged_ties_put_self_first(self):
        a = InteractionStream(3, [0], [1], [1.0])
        b = InteractionStream(3, [1], [2], [1.0])
        assert list(b.merged(a)) == [(1, 2, 1.0), (0, 1, 1.0)]

    def test_merged_rejects_mismatched_universe(self):
        a = InteractionStream(3, [0], [1], [0.0])
        b = InteractionStream(4, [1], [2], [1.0])
        with pytest.raises(ValueError, match="merge"):
            a.merged(b)

    def test_shifted(self):
        s = simple_stream().shifted(10.0)
        assert s.start_time == 10.0
        assert s.end_time == 13.0

    def test_subsampled_bounds(self):
        rng = np.random.default_rng(0)
        s = simple_stream().subsampled(3, rng)
        assert len(s) == 3
        # keeps time order
        times = [t for _, _, t in s]
        assert times == sorted(times)

    def test_subsampled_noop_when_small(self):
        rng = np.random.default_rng(0)
        s = simple_stream().subsampled(100, rng)
        assert s == simple_stream()

    def test_inter_event_times(self):
        gaps = simple_stream().inter_event_times()
        assert gaps == pytest.approx([0.4, 0.7, 1.8, 0.1])

    def test_equality(self):
        assert simple_stream() == simple_stream()
        assert simple_stream() != InteractionStream(4)

    def test_repr(self):
        assert "InteractionStream" in repr(simple_stream())


class TestUniformWindows:
    def test_one_bucket_per_event(self):
        assert uniform_windows(simple_stream(), 3).tolist() == [0, 0, 1, 2, 2]

    def test_single_bucket(self):
        assert uniform_windows(simple_stream(), 1).tolist() == [0] * 5

    def test_zero_width_span(self):
        s = InteractionStream(3, [0, 1], [1, 2], [2.0, 2.0])
        assert uniform_windows(s, 4).tolist() == [0, 0]

    def test_pinned_span_bounds_are_inclusive(self):
        s = InteractionStream(3, [0, 1, 2], [1, 2, 0], [1.0, 2.5, 5.0])
        assert uniform_windows(s, 4, t0=1.0, t1=5.0).tolist() == [0, 1, 3]

    def test_pinned_span_rejects_event_before_t0(self):
        s = InteractionStream(3, [0, 1, 2], [1, 2, 0], [0.0, 2.5, 4.5])
        with pytest.raises(ValueError, match=r"1 of 3 events lie outside"):
            uniform_windows(s, 4, t0=1.0, t1=5.0)

    def test_pinned_span_rejects_event_after_t1(self):
        s = InteractionStream(3, [0, 1, 2], [1, 2, 0], [0.0, 2.5, 4.5])
        with pytest.raises(ValueError, match=r"1 of 3 events lie outside"):
            uniform_windows(s, 4, t0=0.0, t1=4.0)

    def test_pinned_span_past_every_event(self):
        s = InteractionStream(3, [0, 1, 2], [1, 2, 0], [0.0, 2.5, 4.5])
        with pytest.raises(ValueError, match=r"3 of 3 events lie outside"):
            uniform_windows(s, 4, t0=5.0, t1=6.0)

    def test_rejects_inverted_span(self):
        with pytest.raises(ValueError, match="invalid window span"):
            uniform_windows(simple_stream(), 2, t0=3.0, t1=0.0)

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError, match="empty"):
            uniform_windows(InteractionStream(2), 3)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError, match="positive"):
            uniform_windows(simple_stream(), 0)


class TestEqualCountWindows:
    def test_counts_differ_by_at_most_one(self):
        sizes = np.bincount(equal_count_windows(simple_stream(), 2), minlength=2)
        assert sizes.tolist() == [3, 2]

    def test_more_buckets_than_events(self):
        assert equal_count_windows(simple_stream(), 8).tolist() == [0, 1, 2, 3, 4]


class TestSessionWindows:
    def test_splits_at_largest_gap(self):
        # largest gap is 1.8 between t=1.1 and t=2.9
        assert session_windows(simple_stream(), 2).tolist() == [0, 0, 0, 1, 1]

    def test_t_equal_to_events(self):
        assert session_windows(simple_stream(), 5).tolist() == [0, 1, 2, 3, 4]

    def test_t_larger_than_events_leaves_trailing_buckets_empty(self):
        assert session_windows(simple_stream(), 7).tolist() == [0, 1, 2, 3, 4]


class TestDiscretize:
    def test_shapes_and_edge_collapse(self):
        s = InteractionStream(3, [0, 0, 1], [1, 1, 2], [0.1, 0.2, 0.9])
        g = discretize(s, 1)
        assert g.num_timesteps == 1
        # repeated (0,1) collapses to one edge
        assert g[0].num_edges == 2

    def test_attributes_attached(self):
        s = simple_stream()
        attrs = np.ones((3, 4, 2))
        g = discretize(s, 3, attributes=attrs)
        assert g.num_attributes == 2
        assert np.all(g[1].attributes == 1.0)

    def test_non_finite_attributes_rejected(self):
        attrs = np.ones((3, 4, 1))
        attrs[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            discretize(simple_stream(), 3, attributes=attrs)

    def test_policy_choice_changes_profile(self):
        rng = np.random.default_rng(1)
        # bursty stream: 20 early events, 2 late
        src, dst = rng.integers(0, 10, 22), rng.integers(0, 10, 22)
        time = np.concatenate([np.linspace(0, 1, 20), [99.0, 100.0]])
        keep = src != dst
        s = InteractionStream(10, src[keep], dst[keep], time[keep])
        uni = snapshot_density_profile(discretize(s, 4, uniform_windows))
        eq = snapshot_density_profile(discretize(s, 4, equal_count_windows))
        assert uni.std() > eq.std()

    @pytest.mark.parametrize(
        "column,match",
        [
            (np.zeros(4, dtype=np.int64), r"int64 \(4,\) bucket column"),
            (np.zeros((5, 1), dtype=np.int64), r"int64 \(5, 1\) bucket column"),
            (np.zeros(5), r"float64 \(5,\) bucket column, expected integers"),
            (np.zeros(5, dtype=bool), r"bool \(5,\) bucket column"),
            (np.array([0, 0, 1, 2, 3]), r"out of range 0..2"),
            (np.array([-1, 0, 1, 2, 2]), r"out of range 0..2"),
        ],
        ids=["short", "2d", "float", "bool", "too_high", "negative"],
    )
    def test_bad_policy_column_rejected(self, column, match):
        with pytest.raises(ValueError, match=match):
            discretize(simple_stream(), 3, lambda stream, t: column)

    def test_density_profile_is_edges_per_step(self):
        g = discretize(simple_stream(), 3)
        profile = snapshot_density_profile(g)
        assert profile.dtype == np.float64
        assert profile.tolist() == [2.0, 1.0, 2.0]


class TestToStream:
    def graph(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1
        b = np.zeros((3, 3))
        b[1, 2] = 1
        return DynamicAttributedGraph([GraphSnapshot(a), GraphSnapshot(b)])

    def test_midpoint_timestamps(self):
        s = to_stream(self.graph(), window=2.0)
        assert list(s) == [(0, 1, 1.0), (1, 2, 3.0)]

    def test_random_timestamps_within_window(self):
        rng = np.random.default_rng(0)
        s = to_stream(self.graph(), window=1.0, rng=rng)
        for (u, v, t), expected_window in zip(s, [0, 1]):
            assert expected_window <= t < expected_window + 1

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="positive"):
            to_stream(self.graph(), window=0.0)

    def test_round_trip_structure(self):
        g = self.graph()
        s = to_stream(g, window=1.0)
        g2 = discretize(s, 2)
        assert np.array_equal(g.adjacency_tensor(), g2.adjacency_tensor())


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    t=st.integers(1, 6),
    raw=st.lists(
        st.tuples(
            st.integers(0, 7), st.integers(0, 7),
            st.floats(0, 100, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_property_policy_contract(n, t, raw):
    """Every policy returns one int64 bucket id in ``[0, T)`` per event,
    non-decreasing along time order."""
    events = [(u % n, v % n, ts) for u, v, ts in raw if u % n != v % n]
    if not events:
        return
    stream = InteractionStream(n, *zip(*events))
    assert np.all(np.diff(stream.time) >= 0)
    for policy in POLICIES:
        bucket = policy(stream, t)
        assert bucket.dtype == np.int64
        assert bucket.shape == (len(stream),)
        assert bucket.min() >= 0 and bucket.max() < t
        assert np.all(np.diff(bucket) >= 0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 6),
    t=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_property_stream_round_trip(n, t, seed):
    """graph -> stream -> discretize(uniform) reproduces the graph."""
    rng = np.random.default_rng(seed)
    adj = (rng.random((t, n, n)) < 0.3).astype(float)
    for k in range(t):
        np.fill_diagonal(adj[k], 0.0)
    g = DynamicAttributedGraph.from_tensors(adj)
    if sum(s.num_edges for s in g) == 0:
        return
    stream = to_stream(g, window=1.0)
    pinned = functools.partial(uniform_windows, t0=0.0, t1=float(t))
    g2 = discretize(stream, t, pinned)
    assert np.array_equal(g.adjacency_tensor(), g2.adjacency_tensor())
