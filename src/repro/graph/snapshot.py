"""Single-timestep attributed graph snapshot.

A snapshot is a view of one timestep ``t`` of a
:class:`~repro.graph.store.TemporalEdgeStore`: it holds ``(store, t)``
and nothing else that is not a cache.  ``num_edges`` / ``edges`` /
degree queries read the shared columns in O(M_t + N); ``sparse()`` is
the cached CSR view (the preferred access path for metric kernels);
``adjacency`` is a lazily-materialized, cached, **read-only** dense
view whose creation is counted (see
:func:`repro.graph.store.track_dense_materializations`).

``GraphSnapshot(adjacency, attributes)`` is the public dense entry
point for outside input: it validates the matrix and builds a one-step
store from its nonzeros right away, keeping no reference to the matrix.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.store import TemporalEdgeStore


class GraphSnapshot:
    """One timestep ``G_t(A_t, X_t)`` of a dynamic attributed graph.

    Parameters
    ----------
    adjacency:
        Dense ``(N, N)`` 0/1 matrix; ``adjacency[i, j] = 1`` encodes a
        directed edge ``i -> j``.  The diagonal must be zero (no
        self-loops, matching the paper's datasets).
    attributes:
        ``(N, F)`` float matrix of node attributes, or ``None`` for a
        structure-only snapshot (``F = 0``).
    """

    __slots__ = ("_store", "_t", "_adjacency", "_sparse")

    def __init__(
        self,
        adjacency: np.ndarray,
        attributes: Optional[np.ndarray] = None,
    ):
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError(f"adjacency must be square, got {adjacency.shape}")
        n = adjacency.shape[0]
        if attributes is None:
            attributes = np.zeros((n, 0))
        attributes = np.asarray(attributes, dtype=np.float64)
        if attributes.ndim != 2 or attributes.shape[0] != n:
            raise ValueError(
                f"attributes must be (N, F) with N={n}, got {attributes.shape}"
            )
        _validate_dense(adjacency, attributes)
        # binary and loop-free: the nonzeros are already canonical
        src, dst = np.nonzero(adjacency)
        store = TemporalEdgeStore(
            n, 1, src, dst, np.zeros(src.size, dtype=np.int64),
            attributes[None], validate=False, canonical=True,
        )
        self._init_view(store, 0)

    def _init_view(self, store: TemporalEdgeStore, t: int) -> None:
        self._store = store
        self._t = int(t)
        self._adjacency = None
        self._sparse = None

    @classmethod
    def _from_store(cls, store: TemporalEdgeStore, t: int) -> "GraphSnapshot":
        """View of timestep ``t`` of ``store`` (internal; no densify)."""
        snap = cls.__new__(cls)
        snap._init_view(store, t)
        return snap

    @property
    def adjacency(self) -> np.ndarray:
        """Dense ``(N, N)`` 0/1 matrix: a lazily-materialized, cached,
        read-only view whose creation is counted."""
        if self._adjacency is None:
            self._adjacency = self._store.dense_adjacency(self._t)
        return self._adjacency

    @property
    def attributes(self) -> np.ndarray:
        """``(N, F)`` attribute matrix (zero-copy, read-only slice)."""
        return self._store.attributes_at(self._t)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``N``."""
        return self._store.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of directed edges in this snapshot."""
        return self._store.num_edges_at(self._t)

    @property
    def num_attributes(self) -> int:
        """Attribute dimensionality ``F``."""
        return self._store.num_attributes

    def edge_array(self) -> np.ndarray:
        """Directed edges as an ``(E, 2)`` int64 array in CSR order."""
        src, dst = self._store.edges_at(self._t)
        return np.stack([src, dst], axis=1)

    def edges(self) -> List[Tuple[int, int]]:
        """Directed edge list as ``(src, dst)`` pairs."""
        edges = self.edge_array()
        return list(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))

    def in_degrees(self) -> np.ndarray:
        """In-degree per node, shape ``(N,)``."""
        return self._store.in_degrees_at(self._t).astype(np.float64)

    def out_degrees(self) -> np.ndarray:
        """Out-degree per node, shape ``(N,)``."""
        return self._store.out_degrees_at(self._t).astype(np.float64)

    def degrees(self) -> np.ndarray:
        """Total (in + out) degree per node."""
        return self.in_degrees() + self.out_degrees()

    def sparse(self):
        """Cached :class:`~repro.graph.sparse.SparseDirectedGraph` CSR
        view, built from the (immutable) store columns."""
        if self._sparse is None:
            self._sparse = self._store.sparse_at(self._t)
        return self._sparse

    def undirected_adjacency(self) -> np.ndarray:
        """Symmetrized 0/1 adjacency (densifies; legacy consumers only)."""
        sym = np.maximum(self.adjacency, self.adjacency.T)
        return sym

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.edge_array(), other.edge_array())
            and np.array_equal(self.attributes, other.attributes)
        )

    def __repr__(self) -> str:
        return (
            f"GraphSnapshot(N={self.num_nodes}, E={self.num_edges}, "
            f"F={self.num_attributes})"
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        attributes: Optional[np.ndarray] = None,
    ) -> "GraphSnapshot":
        """Build a snapshot from a directed edge list (ignores self-loops)."""
        pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if attributes is not None:
            attributes = np.asarray(attributes, dtype=np.float64)[None]
        store = TemporalEdgeStore(
            num_nodes, 1, pairs[:, 0], pairs[:, 1],
            np.zeros(len(pairs), dtype=np.int64), attributes,
        )
        return cls._from_store(store, 0)


def _validate_dense(adjacency: np.ndarray, attributes: np.ndarray) -> None:
    """Invariant checks in single vectorized passes (no sort/unique)."""
    if adjacency.size and np.any((adjacency != 0.0) & (adjacency != 1.0)):
        raise ValueError("adjacency must be binary (0/1)")
    if np.any(np.diagonal(adjacency) != 0):
        raise ValueError("self-loops are not allowed")
    if attributes.size and not np.all(np.isfinite(attributes)):
        raise ValueError("attributes contain non-finite values")
