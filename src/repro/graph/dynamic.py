"""Dynamic attributed graph: a sequence of snapshots over fixed nodes.

The graph is one :class:`~repro.graph.store.TemporalEdgeStore`
(columnar ``(src, dst, t)`` + one attribute block); its snapshots are
cheap per-timestep views of it.  Building a graph from a snapshot list
concatenates the snapshots' columns into one store, so every graph has
exactly one representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.graph.store import TemporalEdgeStore, TemporalEdgeStoreBuilder


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics matching the paper's Table I columns."""

    num_nodes: int
    num_temporal_edges: int
    num_attributes: int
    num_timesteps: int

    def __str__(self) -> str:
        return (
            f"N={self.num_nodes} M={self.num_temporal_edges} "
            f"X={self.num_attributes} T={self.num_timesteps}"
        )


class DynamicAttributedGraph:
    """The paper's ``G = {G_t(A_t, X_t)}_{t=1..T}`` (§II-A).

    All snapshots share the node universe ``V`` (|V| = N) and the
    attribute dimensionality ``F``; structural evolution is the change
    of edges, attribute evolution the change of ``X_t``.

    Construct from snapshots (their columns are concatenated into one
    T-step store) or wrap a columnar store via :meth:`from_store`.
    """

    def __init__(self, snapshots: Sequence[GraphSnapshot]):
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("a dynamic graph needs at least one snapshot")
        n = snapshots[0].num_nodes
        f = snapshots[0].num_attributes
        builder = TemporalEdgeStoreBuilder(n, f)
        for i, s in enumerate(snapshots):
            if s.num_nodes != n:
                raise ValueError(
                    f"snapshot {i} has {s.num_nodes} nodes, expected {n}"
                )
            if s.num_attributes != f:
                raise ValueError(
                    f"snapshot {i} has {s.num_attributes} attributes, expected {f}"
                )
            src, dst = s._store.edges_at(s._t)
            builder.add_step(src, dst, s.attributes, canonical=True)
        self._attach(builder.build())

    def _attach(self, store: TemporalEdgeStore) -> None:
        self.store = store
        self.snapshots: List[GraphSnapshot] = [
            store.snapshot(t) for t in range(store.num_timesteps)
        ]

    # ------------------------------------------------------------------
    @classmethod
    def from_store(cls, store: TemporalEdgeStore) -> "DynamicAttributedGraph":
        """Wrap a :class:`TemporalEdgeStore` (snapshots are lazy views)."""
        graph = cls.__new__(cls)
        graph._attach(store)
        return graph

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Size of the shared node universe ``N``."""
        return self.snapshots[0].num_nodes

    @property
    def num_attributes(self) -> int:
        """Attribute dimensionality ``F``."""
        return self.snapshots[0].num_attributes

    @property
    def num_timesteps(self) -> int:
        """Sequence length ``T``."""
        return len(self.snapshots)

    @property
    def num_temporal_edges(self) -> int:
        """Total edges summed across snapshots (the paper's ``M``)."""
        return self.store.num_edges

    def statistics(self) -> GraphStatistics:
        """N/M/X/T summary (the paper's Table I columns)."""
        return GraphStatistics(
            num_nodes=self.num_nodes,
            num_temporal_edges=self.num_temporal_edges,
            num_attributes=self.num_attributes,
            num_timesteps=self.num_timesteps,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return DynamicAttributedGraph(self.snapshots[t])
        return self.snapshots[t]

    def __iter__(self) -> Iterator[GraphSnapshot]:
        return iter(self.snapshots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicAttributedGraph):
            return NotImplemented
        return self.store == other.store

    def __repr__(self) -> str:
        return f"DynamicAttributedGraph({self.statistics()})"

    # ------------------------------------------------------------------
    def adjacency_tensor(self) -> np.ndarray:
        """Stack of adjacency matrices, shape ``(T, N, N)``.

        Explicitly O(N²·T) — a legacy export, not an internal format.
        """
        return np.stack([s.adjacency for s in self.snapshots])

    def attribute_tensor(self) -> np.ndarray:
        """Stack of attribute matrices, shape ``(T, N, F)``.

        Zero-copy: a read-only view of the store's own block
        (``.copy()`` it to mutate).
        """
        view = self.store.attributes.view()
        view.flags.writeable = False
        return view

    def active_nodes(self, t: int) -> np.ndarray:
        """Indices of nodes with at least one edge in snapshot ``t``."""
        snap = self.snapshots[t]
        deg = snap.degrees()
        return np.nonzero(deg > 0)[0]

    def copy(self) -> "DynamicAttributedGraph":
        """Deep copy of the O(M + N·F·T) columns (no densification)."""
        return DynamicAttributedGraph.from_store(self.store.copy())

    def truncated(self, t: int) -> "DynamicAttributedGraph":
        """Prefix of the sequence up to (excluding) timestep ``t``."""
        if not 1 <= t <= len(self):
            raise IndexError(f"truncation point {t} out of range 1..{len(self)}")
        return DynamicAttributedGraph.from_store(
            self.store.slice_timesteps(0, t)
        )

    @classmethod
    def from_tensors(
        cls, adjacency: np.ndarray, attributes: Optional[np.ndarray] = None
    ) -> "DynamicAttributedGraph":
        """Build from ``(T, N, N)`` adjacency and ``(T, N, F)`` attributes."""
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.ndim != 3:
            raise ValueError("adjacency tensor must be (T, N, N)")
        t_len = adjacency.shape[0]
        snaps = []
        for t in range(t_len):
            attr = None if attributes is None else attributes[t]
            snaps.append(GraphSnapshot(adjacency[t], attr))
        return cls(snaps)
