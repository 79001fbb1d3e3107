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


def simple_stream():
    return InteractionStream(
        4,
        [(0, 1, 0.0), (1, 2, 0.4), (2, 3, 1.1), (3, 0, 2.9), (0, 2, 3.0)],
    )


class TestInteractionStream:
    def test_events_sorted_by_time(self):
        s = InteractionStream(3, [(0, 1, 5.0), (1, 2, 1.0), (2, 0, 3.0)])
        assert [t for _, _, t in s] == [1.0, 3.0, 5.0]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            InteractionStream(3, [(1, 1, 0.0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            InteractionStream(3, [(0, 3, 0.0)])

    def test_rejects_nan_timestamp(self):
        with pytest.raises(ValueError, match="non-finite"):
            InteractionStream(3, [(0, 1, float("nan"))])

    def test_rejects_nonpositive_node_count(self):
        with pytest.raises(ValueError, match="positive"):
            InteractionStream(0)

    def test_len_and_iter(self):
        s = simple_stream()
        assert len(s) == 5
        assert list(s)[0] == (0, 1, 0.0)

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

    def test_statistics(self):
        stats = simple_stream().statistics()
        assert stats.num_nodes == 4
        assert stats.num_events == 5
        assert stats.time_span == pytest.approx(3.0)
        assert stats.unique_pairs == 5
        assert "events=5" in str(stats)

    def test_between_half_open(self):
        s = simple_stream()
        window = s.between(0.4, 3.0)
        assert [t for _, _, t in window] == [0.4, 1.1, 2.9]

    def test_between_empty_range(self):
        assert len(simple_stream().between(10.0, 20.0)) == 0

    def test_merged(self):
        a = InteractionStream(3, [(0, 1, 0.0)])
        b = InteractionStream(3, [(1, 2, 1.0)])
        m = a.merged(b)
        assert len(m) == 2
        assert m.end_time == 1.0

    def test_merged_rejects_mismatched_universe(self):
        a = InteractionStream(3, [(0, 1, 0.0)])
        b = InteractionStream(4, [(1, 2, 1.0)])
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
    def test_buckets_cover_all_events(self):
        buckets = uniform_windows(simple_stream(), 3)
        assert sum(len(b) for b in buckets) == 5

    def test_last_event_lands_in_final_bucket(self):
        buckets = uniform_windows(simple_stream(), 3)
        assert (0, 2, 3.0) in buckets[-1]

    def test_single_bucket(self):
        buckets = uniform_windows(simple_stream(), 1)
        assert len(buckets) == 1 and len(buckets[0]) == 5

    def test_zero_width_span(self):
        s = InteractionStream(3, [(0, 1, 2.0), (1, 2, 2.0)])
        buckets = uniform_windows(s, 4)
        assert len(buckets[0]) == 2
        assert all(not b for b in buckets[1:])

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError, match="empty"):
            uniform_windows(InteractionStream(2), 3)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError, match="positive"):
            uniform_windows(simple_stream(), 0)


class TestEqualCountWindows:
    def test_counts_differ_by_at_most_one(self):
        buckets = equal_count_windows(simple_stream(), 2)
        sizes = [len(b) for b in buckets]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 5

    def test_preserves_time_order_across_buckets(self):
        buckets = equal_count_windows(simple_stream(), 3)
        flat = [t for b in buckets for _, _, t in b]
        assert flat == sorted(flat)

    def test_more_buckets_than_events(self):
        buckets = equal_count_windows(simple_stream(), 8)
        assert sum(len(b) for b in buckets) == 5
        assert len(buckets) == 8


class TestSessionWindows:
    def test_splits_at_largest_gap(self):
        # largest gap is 1.8 between t=1.1 and t=2.9
        buckets = session_windows(simple_stream(), 2)
        assert [len(b) for b in buckets] == [3, 2]
        assert buckets[1][0][2] == 2.9

    def test_t_equal_to_events(self):
        buckets = session_windows(simple_stream(), 5)
        assert all(len(b) == 1 for b in buckets)

    def test_t_larger_than_events_pads_empty(self):
        buckets = session_windows(simple_stream(), 7)
        assert sum(len(b) for b in buckets) == 5
        assert buckets[-1] == [] and buckets[-2] == []


class TestDiscretize:
    def test_shapes_and_edge_collapse(self):
        s = InteractionStream(
            3, [(0, 1, 0.1), (0, 1, 0.2), (1, 2, 0.9)]
        )
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

    def test_policy_choice_changes_profile(self):
        rng = np.random.default_rng(1)
        # bursty stream: 20 early events, 2 late
        events = [(int(a), int(b), float(t)) for a, b, t in zip(
            rng.integers(0, 10, 22), rng.integers(0, 10, 22),
            list(np.linspace(0, 1, 20)) + [99.0, 100.0])
            if a != b]
        s = InteractionStream(10, events)
        uni = snapshot_density_profile(discretize(s, 4, uniform_windows))
        eq = snapshot_density_profile(discretize(s, 4, equal_count_windows))
        assert uni.std() > eq.std()

    def test_bad_policy_bucket_count_rejected(self):
        def broken(stream, t):
            return [[]]

        with pytest.raises(ValueError, match="buckets"):
            discretize(simple_stream(), 3, broken)


class TestToStream:
    def graph(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1
        b = np.zeros((3, 3))
        b[1, 2] = 1
        return DynamicAttributedGraph([GraphSnapshot(a), GraphSnapshot(b)])

    def test_midpoint_timestamps(self):
        s = to_stream(self.graph(), window=2.0)
        assert [t for _, _, t in s] == [1.0, 3.0]

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
def test_property_discretization_conserves_events(n, t, raw):
    """Every policy places every event in exactly one bucket."""
    events = [(u % n, v % n, ts) for u, v, ts in raw if u % n != v % n]
    if not events:
        return
    stream = InteractionStream(n, events)
    for policy in (uniform_windows, equal_count_windows, session_windows):
        buckets = policy(stream, t)
        assert len(buckets) == t
        assert sum(len(b) for b in buckets) == len(stream)
        flat = [ts for b in buckets for _, _, ts in b]
        assert flat == sorted(flat)


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
