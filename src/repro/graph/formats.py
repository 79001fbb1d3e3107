"""Text-format interop: CSV edge streams and attribute tables.

The ``.npz`` persistence in :mod:`repro.graph.io` is compact but
opaque; real dataset exchange (SNAP dumps, database exports, the
DBMS-benchmarking use case of §I) happens in delimited text.  This
module reads and writes the two standard shapes:

* **Edge CSV** — one row per temporal edge: ``src,dst,t`` (integer
  timesteps, the columns of a :class:`~repro.graph.store.TemporalEdgeStore`)
  via :func:`read_edge_csv` / :func:`write_edge_csv`, or
  ``src,dst,time`` with float timestamps (the columns of an
  :class:`~repro.graph.streams.InteractionStream`) via
  :func:`read_event_csv` / :func:`write_event_csv`.
* **Attribute CSV** — one row per ``(t, node)`` pair followed by the F
  attribute values, via :func:`read_attribute_csv` /
  :func:`write_attribute_csv`.

All readers validate aggressively and fail with the offending line
number — silently mis-parsed benchmark data is worse than no data.
"""

from __future__ import annotations

import csv
import os
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.graph.dynamic import DynamicAttributedGraph
from repro.graph.store import TemporalEdgeStore
from repro.graph.streams import InteractionStream

PathLike = Union[str, os.PathLike]

_EDGE_HEADER = ["src", "dst", "t"]
_EVENT_HEADER = ["src", "dst", "time"]


def _parse_error(path: PathLike, line_no: int, message: str) -> ValueError:
    return ValueError(f"{os.fspath(path)}:{line_no}: {message}")


# ----------------------------------------------------------------------
# integer-timestep edge streams
# ----------------------------------------------------------------------
def write_edge_csv(store: TemporalEdgeStore, path: PathLike) -> None:
    """Write a store's edges as ``src,dst,t`` rows with a header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_EDGE_HEADER)
        writer.writerows(
            zip(store.src.tolist(), store.dst.tolist(), store.t.tolist())
        )


def read_edge_csv(
    path: PathLike,
    num_nodes: Optional[int] = None,
    num_timesteps: Optional[int] = None,
) -> TemporalEdgeStore:
    """Read ``src,dst,t`` rows into a :class:`TemporalEdgeStore`.

    Duplicate rows collapse and self-loop rows drop, as in every store.
    ``num_nodes`` / ``num_timesteps`` default to one past the maximum
    observed ids; pass them explicitly to pin the universe (required
    when isolated trailing nodes/timesteps matter).  A row outside a
    pinned universe fails with its line number.
    """
    rows: List[Tuple[int, int, int]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise _parse_error(path, 1, "empty file")
        if [h.strip().lower() for h in header] != _EDGE_HEADER:
            raise _parse_error(
                path, 1, f"expected header {','.join(_EDGE_HEADER)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise _parse_error(path, line_no, f"expected 3 fields, got {len(row)}")
            try:
                u, v, t = (int(x) for x in row)
            except ValueError:
                raise _parse_error(path, line_no, f"non-integer field in {row}")
            if min(u, v, t) < 0:
                raise _parse_error(path, line_no, "negative id or timestep")
            if num_nodes is not None and max(u, v) >= num_nodes:
                raise _parse_error(
                    path, line_no, f"node id out of range 0..{num_nodes - 1}"
                )
            if num_timesteps is not None and t >= num_timesteps:
                raise _parse_error(
                    path, line_no,
                    f"timestep {t} out of range 0..{num_timesteps - 1}",
                )
            rows.append((u, v, t))
    cols = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    n = num_nodes if num_nodes is not None else (
        int(cols[:, :2].max()) + 1 if rows else 0
    )
    t_len = num_timesteps if num_timesteps is not None else (
        int(cols[:, 2].max()) + 1 if rows else 0
    )
    if n <= 0 or t_len <= 0:
        raise ValueError(f"{os.fspath(path)}: no edges and no explicit universe")
    return TemporalEdgeStore(n, t_len, cols[:, 0], cols[:, 1], cols[:, 2])


# ----------------------------------------------------------------------
# float-timestamp event streams
# ----------------------------------------------------------------------
def write_event_csv(stream: InteractionStream, path: PathLike) -> None:
    """Write an interaction stream as ``src,dst,time`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_EVENT_HEADER)
        writer.writerows((u, v, repr(t)) for u, v, t in stream)


def read_event_csv(
    path: PathLike, num_nodes: Optional[int] = None
) -> InteractionStream:
    """Read ``src,dst,time`` rows into an :class:`InteractionStream`.

    ``num_nodes`` defaults to one past the maximum observed id.  A
    negative id, an id outside an explicit ``num_nodes``, a self-loop
    or a non-finite time fails with its line number.
    """
    rows: List[Tuple[int, int, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise _parse_error(path, 1, "empty file")
        if [h.strip().lower() for h in header] != _EVENT_HEADER:
            raise _parse_error(
                path, 1, f"expected header {','.join(_EVENT_HEADER)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise _parse_error(path, line_no, f"expected 3 fields, got {len(row)}")
            try:
                u, v = int(row[0]), int(row[1])
                ts = float(row[2])
            except ValueError:
                raise _parse_error(path, line_no, f"malformed row {row}")
            if min(u, v) < 0:
                raise _parse_error(path, line_no, "negative node id")
            if num_nodes is not None and max(u, v) >= num_nodes:
                raise _parse_error(
                    path, line_no, f"node id out of range 0..{num_nodes - 1}"
                )
            if u == v:
                raise _parse_error(path, line_no, f"self-loop event on node {u}")
            if not np.isfinite(ts):
                raise _parse_error(path, line_no, f"non-finite timestamp {ts}")
            rows.append((u, v, ts))
    n = num_nodes if num_nodes is not None else (
        max((max(u, v) for u, v, _ in rows), default=-1) + 1
    )
    if n <= 0:
        raise ValueError(f"{os.fspath(path)}: no events and no explicit universe")
    src, dst, time = zip(*rows) if rows else ((), (), ())
    return InteractionStream(n, src, dst, time)


# ----------------------------------------------------------------------
# attribute tables
# ----------------------------------------------------------------------
def write_attribute_csv(graph: DynamicAttributedGraph, path: PathLike) -> None:
    """Write the ``(T, N, F)`` attribute tensor as ``t,node,x0..`` rows."""
    f = graph.num_attributes
    header = ["t", "node"] + [f"x{i}" for i in range(f)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, snap in enumerate(graph):
            for v in range(graph.num_nodes):
                writer.writerow(
                    [t, v] + [repr(float(x)) for x in snap.attributes[v]]
                )


def read_attribute_csv(path: PathLike) -> np.ndarray:
    """Read a :func:`write_attribute_csv` table back into ``(T, N, F)``.

    The table must be dense: every ``(t, node)`` pair present exactly
    once, with consistent F.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise _parse_error(path, 1, "empty file")
        if len(header) < 2 or header[0].strip().lower() != "t" or (
            header[1].strip().lower() != "node"
        ):
            raise _parse_error(path, 1, "expected header t,node,x0,...")
        f = len(header) - 2
        cells = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 + f:
                raise _parse_error(
                    path, line_no, f"expected {2 + f} fields, got {len(row)}"
                )
            try:
                t, v = int(row[0]), int(row[1])
                values = [float(x) for x in row[2:]]
            except ValueError:
                raise _parse_error(path, line_no, f"malformed row {row}")
            if (t, v) in cells:
                raise _parse_error(path, line_no, f"duplicate cell ({t}, {v})")
            cells[(t, v)] = values
    if not cells:
        raise ValueError(f"{os.fspath(path)}: no attribute rows")
    t_len = max(t for t, _ in cells) + 1
    n = max(v for _, v in cells) + 1
    if len(cells) != t_len * n:
        raise ValueError(
            f"{os.fspath(path)}: sparse table ({len(cells)} of {t_len * n} cells)"
        )
    out = np.zeros((t_len, n, f))
    for (t, v), values in cells.items():
        out[t, v] = values
    return out


# ----------------------------------------------------------------------
# whole-graph round trip
# ----------------------------------------------------------------------
def export_graph_csv(
    graph: DynamicAttributedGraph, edge_path: PathLike, attr_path: PathLike
) -> None:
    """Write a dynamic attributed graph as an edge CSV + attribute CSV."""
    write_edge_csv(graph.store, edge_path)
    write_attribute_csv(graph, attr_path)


def import_graph_csv(
    edge_path: PathLike,
    attr_path: Optional[PathLike] = None,
    num_nodes: Optional[int] = None,
    num_timesteps: Optional[int] = None,
) -> DynamicAttributedGraph:
    """Rebuild a dynamic attributed graph from CSV files.

    The attribute table, when given, pins the node/timestep universe;
    its shape must be consistent with the edge stream.
    """
    attrs = read_attribute_csv(attr_path) if attr_path is not None else None
    if attrs is not None:
        num_timesteps = num_timesteps or attrs.shape[0]
        num_nodes = num_nodes or attrs.shape[1]
    store = read_edge_csv(edge_path, num_nodes=num_nodes, num_timesteps=num_timesteps)
    return DynamicAttributedGraph.from_store(store.with_attributes(attrs))
