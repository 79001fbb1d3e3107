"""Tests for CSV interop (edge streams, event streams, attributes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DynamicAttributedGraph, TemporalEdgeStore
from repro.graph.formats import (
    export_graph_csv,
    import_graph_csv,
    read_attribute_csv,
    read_edge_csv,
    read_event_csv,
    write_attribute_csv,
    write_edge_csv,
    write_event_csv,
)
from repro.graph.streams import InteractionStream


def sample_graph(seed=0, n=8, t=3, f=2):
    rng = np.random.default_rng(seed)
    adj = (rng.random((t, n, n)) < 0.25).astype(float)
    for k in range(t):
        np.fill_diagonal(adj[k], 0.0)
    attrs = rng.normal(size=(t, n, f)).round(6)
    return DynamicAttributedGraph.from_tensors(adj, attrs)


def edge_store(n, t_len, rows):
    src, dst, t = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
    return TemporalEdgeStore(n, t_len, src, dst, t)


class TestEdgeCsv:
    def test_round_trip(self, tmp_path):
        store = edge_store(5, 3, [(0, 1, 0), (1, 2, 1), (4, 3, 2)])
        path = tmp_path / "edges.csv"
        write_edge_csv(store, path)
        back = read_edge_csv(path, num_nodes=5, num_timesteps=3)
        assert back == store

    def test_universe_inferred(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_csv(edge_store(5, 3, [(0, 4, 2)]), path)
        back = read_edge_csv(path)
        assert back.num_nodes == 5
        assert back.num_timesteps == 3

    def test_header_required(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("0,1,0\n")
        with pytest.raises(ValueError, match="expected header"):
            read_edge_csv(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,t\n0,1\n")
        with pytest.raises(ValueError, match="edges.csv:2"):
            read_edge_csv(path)

    def test_non_integer_rejected_with_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,t\n0,1,0\na,b,c\n")
        with pytest.raises(ValueError, match="edges.csv:3"):
            read_edge_csv(path)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,t\n0,-1,0\n")
        with pytest.raises(ValueError, match="negative"):
            read_edge_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_edge_csv(path)

    def test_no_edges_no_universe_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,t\n")
        with pytest.raises(ValueError, match="universe"):
            read_edge_csv(path)

    def test_no_edges_in_explicit_universe(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,t\n")
        assert read_edge_csv(path, 4, 2) == edge_store(4, 2, [])

    def test_node_outside_universe_names_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,t\n0,1,0\n1,2,0\n0,3,0\n")
        with pytest.raises(ValueError, match=r"edges\.csv:4: node id"):
            read_edge_csv(path, num_nodes=3)

    def test_timestep_outside_universe_names_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,t\n0,1,0\n1,2,1\n")
        with pytest.raises(ValueError, match=r"edges\.csv:3: timestep 1"):
            read_edge_csv(path, num_timesteps=1)

    def test_duplicates_collapse_and_loops_drop(self, tmp_path):
        rows = [(0, 1, 0), (0, 1, 0), (2, 2, 1), (3, 1, 1),
                (0, 1, 0), (1, 0, 2), (4, 4, 0), (3, 1, 1)]
        path = tmp_path / "edges.csv"
        path.write_text(
            "src,dst,t\n" + "".join(f"{u},{v},{t}\n" for u, v, t in rows)
        )
        back = read_edge_csv(path)
        assert back == edge_store(5, 3, rows)
        assert back.num_edges == 3

    def test_rows_written_in_canonical_order(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_csv(edge_store(4, 2, [(3, 0, 1), (2, 1, 0), (0, 3, 1)]), path)
        assert path.read_text().split() == [
            "src,dst,t", "2,1,0", "0,3,1", "3,0,1"
        ]


class TestEventCsv:
    def test_round_trip_preserves_float_times(self, tmp_path):
        stream = InteractionStream(
            4, [0, 2, 1], [1, 3, 0], [0.123456789, 1.5, 2.25]
        )
        path = tmp_path / "events.csv"
        write_event_csv(stream, path)
        back = read_event_csv(path, num_nodes=4)
        assert back == stream

    def test_malformed_time_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("src,dst,time\n0,1,notatime\n")
        with pytest.raises(ValueError, match="events.csv:2"):
            read_event_csv(path)

    @pytest.mark.parametrize(
        "row,num_nodes,message",
        [
            ("2,2,1.0", None, "self-loop event on node 2"),
            ("0,4,1.0", 4, "node id out of range 0..3"),
            ("-1,2,1.0", None, "negative node id"),
            ("0,2,nan", None, "non-finite timestamp nan"),
            ("0,2,inf", None, "non-finite timestamp inf"),
        ],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, row, num_nodes, message):
        path = tmp_path / "events.csv"
        path.write_text(f"src,dst,time\n0,1,0.5\n\n{row}\n")
        with pytest.raises(ValueError, match=f"events.csv:4: {message}"):
            read_event_csv(path, num_nodes=num_nodes)

    def test_universe_inferred_from_max_id(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("src,dst,time\n0,5,0.5\n2,1,0.25\n")
        stream = read_event_csv(path)
        assert stream.num_nodes == 6
        assert list(stream) == [(2, 1, 0.25), (0, 5, 0.5)]

    def test_header_only_needs_explicit_universe(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("src,dst,time\n")
        with pytest.raises(ValueError, match="no events"):
            read_event_csv(path)
        assert len(read_event_csv(path, num_nodes=3)) == 0


class TestAttributeCsv:
    def test_round_trip(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "attrs.csv"
        write_attribute_csv(g, path)
        back = read_attribute_csv(path)
        np.testing.assert_allclose(back, g.attribute_tensor())

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("t,node,x0\n0,0,1.0\n0,0,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_attribute_csv(path)

    def test_sparse_table_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("t,node,x0\n0,0,1.0\n1,1,2.0\n")
        with pytest.raises(ValueError, match="sparse"):
            read_attribute_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="t,node"):
            read_attribute_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("t,node,x0\n")
        with pytest.raises(ValueError, match="no attribute rows"):
            read_attribute_csv(path)


class TestWholeGraph:
    def test_export_import_round_trip(self, tmp_path):
        g = sample_graph()
        edge_path = tmp_path / "e.csv"
        attr_path = tmp_path / "a.csv"
        export_graph_csv(g, edge_path, attr_path)
        back = import_graph_csv(edge_path, attr_path)
        assert back == g

    def test_attribute_table_pins_edge_universe(self, tmp_path):
        g = sample_graph(n=4, t=2)
        edge_path, attr_path = tmp_path / "e.csv", tmp_path / "a.csv"
        write_attribute_csv(g, attr_path)
        edge_path.write_text("src,dst,t\n0,1,0\n2,4,1\n")
        with pytest.raises(ValueError, match=r"e\.csv:3: node id"):
            import_graph_csv(edge_path, attr_path)

    def test_import_structure_only(self, tmp_path):
        g = sample_graph(f=2)
        edge_path = tmp_path / "e.csv"
        write_edge_csv(g.store, edge_path)
        back = import_graph_csv(
            edge_path, num_nodes=g.num_nodes, num_timesteps=g.num_timesteps
        )
        assert np.array_equal(back.adjacency_tensor(), g.adjacency_tensor())
        assert back.num_attributes == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), n=st.integers(2, 10), t=st.integers(1, 5))
def test_property_csv_round_trip(tmp_path_factory, seed, n, t):
    """export -> import is the identity for any dense attributed graph."""
    tmp = tmp_path_factory.mktemp("fmt")
    rng = np.random.default_rng(seed)
    adj = (rng.random((t, n, n)) < 0.3).astype(float)
    for k in range(t):
        np.fill_diagonal(adj[k], 0.0)
    attrs = rng.normal(size=(t, n, 2))
    g = DynamicAttributedGraph.from_tensors(adj, attrs)
    export_graph_csv(g, tmp / "e.csv", tmp / "a.csv")
    back = import_graph_csv(tmp / "e.csv", tmp / "a.csv")
    assert np.array_equal(back.adjacency_tensor(), g.adjacency_tensor())
    np.testing.assert_allclose(back.attribute_tensor(), g.attribute_tensor())
