"""Columnar temporal edge-store: the canonical dynamic-graph layout.

The paper's datasets (Table I) are sparse — M temporal edges over N
nodes and T steps with M ≪ N²·T — yet the original reproduction routed
every layer through dense ``(N, N)`` float64 adjacency matrices per
snapshot, making memory and copy cost O(N²·T) regardless of sparsity.
This module provides the columnar representation that fixes the data
layer:

* :class:`TemporalEdgeStore` — the whole dynamic graph (and the only
  graph representation) as three shared
  int64 columns ``(src, dst, t)`` sorted by ``(t, src, dst)`` and
  deduplicated, per-timestep ``offsets`` into the columns, and one
  ``(T, N, F)`` attribute block.  Structural memory is O(M + T),
  attribute memory O(N·F·T); per-timestep CSR/CSC row indexes are
  derived on demand (the query tier's plan cache keeps them).
  Canonical order is the order of the packed int64 key
  ``(t·N + src)·N + dst`` (:func:`_canonical_keys`), so ``T·N²`` must
  fit in int64.
* :class:`TemporalEdgeStoreBuilder` — append-only construction for
  producers that emit one timestep at a time (the MixBernoulli decode
  streams edges straight in; dense producers pass the nonzeros of
  their per-step working array).
* :func:`track_dense_materializations` — observability hook: every
  densification of a store timestep (``GraphSnapshot.adjacency`` or
  :meth:`TemporalEdgeStore.dense_adjacency`)
  increments a process-global counter, so tests and the eval harness
  can assert that migrated paths never fall back to dense views.
* :func:`merge_canonical_runs` — merge of canonically-sorted column
  runs from independent producers (one sort of their packed keys).

The prose version of this contract — memory model, adapter tiers,
and how sharded generation and streaming ingestion build on the
store — lives in ``docs/architecture.md``.

View/adapter contract for new consumers
---------------------------------------
:class:`~repro.graph.snapshot.GraphSnapshot` views expose the graph
three ways, cheapest first:

1. **Columns** — ``snapshot.edge_array()`` / ``store.edges_at(t)``:
   zero-copy slices of the shared columns, already in CSR order.
2. **CSR** — ``store.csr_at(t)`` / ``store.csc_at(t)`` (uncached) or
   the cached ``snapshot.sparse()``
   :class:`~repro.graph.sparse.SparseDirectedGraph` for neighbourhood
   queries and the vectorized metric kernels.
3. **Dense** — ``snapshot.adjacency``: a lazily-materialized, cached,
   *read-only* ``(N, N)`` view for legacy consumers.  It is counted
   (see above); new code should never need it.

Arrays handed out by the store are views of shared memory — treat them
as immutable.  Code that wants to mutate must go through ``.copy()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.sparse import csr_from_keys, dedup_keys, split_keys

__all__ = [
    "TemporalEdgeStore",
    "TemporalEdgeStoreBuilder",
    "merge_canonical_runs",
    "track_dense_materializations",
    "dense_materialization_count",
]


# ----------------------------------------------------------------------
# dense-view observability
# ----------------------------------------------------------------------
class _MaterializationCounter:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


_COUNTER = _MaterializationCounter()


def dense_materialization_count() -> int:
    """Process-global number of store→dense adjacency materializations."""
    return _COUNTER.count


def _record_materialization() -> None:
    _COUNTER.count += 1


@contextmanager
def track_dense_materializations() -> Iterator[Callable[[], int]]:
    """Count dense materializations inside a ``with`` block.

    The counter is process-global: overlapping tracked regions (nested
    blocks, concurrent threads) each observe every densification that
    happens anywhere in the process during their window — scope the
    block tightly around the code under test.

    Yields a zero-argument callable returning the number of store
    timesteps densified since the block was entered::

        with track_dense_materializations() as materialized:
            run = timed_fit_generate(name, gen, graph)
            scores = structure_metric_table(graph, run.generated)
        assert materialized() == 0
    """
    start = _COUNTER.count
    yield lambda: _COUNTER.count - start


def _as_int_column(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64).reshape(-1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _check_endpoint_range(
    src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> None:
    if src.size and (
        min(src.min(), dst.min()) < 0
        or max(src.max(), dst.max()) >= num_nodes
    ):
        raise ValueError("edge endpoints out of range")


#: Largest packed key; ``T·N²`` beyond it would wrap int64 silently.
_MAX_KEY = int(np.iinfo(np.int64).max)


def _check_key_range(num_nodes: int, num_timesteps: int) -> None:
    """Reject universes whose packed ``(t, src, dst)`` keys overflow int64.

    Python-int arithmetic, so the check itself cannot wrap; callers run
    it before allocating anything sized by ``N`` or ``T``.
    """
    if num_timesteps * num_nodes * num_nodes > _MAX_KEY:
        raise ValueError(
            f"N={num_nodes}, T={num_timesteps}: T·N² exceeds 2**63 - 1, "
            "so packed (t, src, dst) edge keys would overflow int64"
        )


def _pack_keys(src, dst, t, num_nodes: int) -> np.ndarray:
    """Packed ``((t·N) + src)·N + dst`` keys; ``t`` may be a scalar.

    With ``0 <= src, dst < N`` key order is exactly ``(t, src, dst)``
    order — the store's canonical order.
    """
    return (t * num_nodes + src) * num_nodes + dst


def _unpack_keys(
    keys: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, t)`` int64 columns of *sorted* packed keys.

    One :func:`~repro.graph.sparse.split_keys` gives ``rest = t·N +
    src`` and ``dst``.  Sorted keys make ``t`` monotone, so ``t`` is a
    ``searchsorted`` over the ``k·N²`` step boundaries expanded by
    ``np.repeat``, and ``src = rest - t·N``: no second division.
    """
    src, dst = split_keys(keys, num_nodes)
    if not keys.size:
        return src, dst, np.zeros(0, dtype=np.int64)
    per_step = num_nodes * num_nodes
    steps = np.arange(int(keys[-1]) // per_step + 1, dtype=np.int64)
    counts = np.diff(np.searchsorted(keys, steps * per_step), append=keys.size)
    src -= np.repeat(steps * num_nodes, counts)
    return src, dst, np.repeat(steps, counts)


def _canonical_keys(src, dst, t, num_nodes: int) -> np.ndarray:
    """Sorted-unique packed keys of raw ``(src, dst, t)`` events.

    The store's one canonicalization: drop self-loops, pack, sort and
    drop adjacent duplicates (:func:`~repro.graph.sparse.dedup_keys`).
    ``t`` may be a scalar (one timestep's columns).  Every producer —
    :class:`TemporalEdgeStore`, :class:`TemporalEdgeStoreBuilder`, the
    streaming and live builders — runs it, so independently-built
    stores can never disagree on canonical order.
    """
    keys = _pack_keys(src, dst, t, num_nodes)
    keep = src != dst
    if not keep.all():
        keys = keys[keep]
    return dedup_keys(keys)


def _canonicalize_columns(
    src, dst, t, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_canonical_keys`, unpacked once to ``(src, dst, t)``."""
    return _unpack_keys(_canonical_keys(src, dst, t, num_nodes), num_nodes)


def merge_canonical_runs(
    runs: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    num_nodes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge loop-free ``(src, dst, t)`` runs into canonical columns.

    Runs may overlap arbitrarily in key range and repeat each other's
    edges.  Every run is packed into keys, the keys are concatenated
    and one sort plus adjacent diff
    (:func:`~repro.graph.sparse.dedup_keys`) orders them and collapses
    duplicates within and across runs.  Returns int64
    ``(src, dst, t)`` columns ready for
    ``TemporalEdgeStore(..., canonical=True)``.

    Sharded generation re-exports it for per-shard edge columns whose
    key ranges interleave.
    """
    keys = [
        _pack_keys(
            *(np.asarray(c, dtype=np.int64).reshape(-1) for c in run),
            num_nodes,
        )
        for run in runs
    ]
    merged = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
    return _unpack_keys(dedup_keys(merged), num_nodes)


class TemporalEdgeStore:
    """Columnar CSR-backed store for one dynamic attributed graph.

    Attributes (all shared, treat as immutable)
    -------------------------------------------
    ``src``, ``dst``, ``t``:
        Parallel ``(M,)`` int64 columns sorted by ``(t, src, dst)``,
        loop-free, deduplicated.
    ``offsets``:
        ``(T + 1,)`` int64; timestep ``t`` owns columns
        ``[offsets[t], offsets[t + 1])``.
    ``attributes``:
        ``(T, N, F)`` float64 block (``F = 0`` when absent).

    Parameters
    ----------
    num_nodes, num_timesteps:
        The fixed universe ``N`` and sequence length ``T``.  ``T·N²``
        must fit in int64 — the packed edge keys — or ``ValueError``
        is raised before anything is allocated.
    src, dst, t:
        Parallel int arrays of directed temporal edges ``(u, v, t)``.
        Self-loops are dropped and duplicates collapse (snapshots are
        unweighted 0/1); the store keeps them sorted by ``(t, src,
        dst)``.
    attributes:
        Optional ``(T, N, F)`` attribute tensor, attached verbatim
        (zero-copy).  ``None`` means ``F = 0``.
    validate:
        Range-check endpoints/timesteps and attribute finiteness.
    canonical:
        Skip canonicalization when the caller guarantees the columns
        are already sorted, deduplicated and loop-free (internal fast
        path for builders and slices).
    """

    __slots__ = (
        "num_nodes",
        "num_timesteps",
        "src",
        "dst",
        "t",
        "offsets",
        "attributes",
    )

    def __init__(
        self,
        num_nodes: int,
        num_timesteps: int,
        src,
        dst,
        t,
        attributes: Optional[np.ndarray] = None,
        *,
        validate: bool = True,
        canonical: bool = False,
    ):
        self.num_nodes = int(num_nodes)
        self.num_timesteps = int(num_timesteps)
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        if self.num_timesteps < 1:
            raise ValueError("num_timesteps must be >= 1")
        _check_key_range(self.num_nodes, self.num_timesteps)
        src = _as_int_column(src, "src")
        dst = _as_int_column(dst, "dst")
        t = _as_int_column(t, "t")
        if not (src.size == dst.size == t.size):
            raise ValueError(
                f"column lengths differ: {src.size}/{dst.size}/{t.size}"
            )
        if validate and src.size:
            _check_endpoint_range(src, dst, self.num_nodes)
            if t.min() < 0 or t.max() >= self.num_timesteps:
                raise ValueError("edge timesteps out of range")
        if not canonical:
            src, dst, t = _canonicalize_columns(src, dst, t, self.num_nodes)
        self.src = src
        self.dst = dst
        self.t = t
        self.offsets = np.searchsorted(
            t, np.arange(self.num_timesteps + 1, dtype=np.int64)
        ).astype(np.int64)
        if attributes is None:
            attributes = np.zeros((self.num_timesteps, self.num_nodes, 0))
        attributes = np.asarray(attributes, dtype=np.float64)
        if attributes.shape[:2] != (self.num_timesteps, self.num_nodes):
            raise ValueError(
                f"attributes must be (T={self.num_timesteps}, "
                f"N={self.num_nodes}, F), got {attributes.shape}"
            )
        if validate and attributes.size and not np.all(np.isfinite(attributes)):
            raise ValueError("attributes contain non-finite values")
        self.attributes = attributes

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def with_attributes(
        self, attributes: Optional[np.ndarray]
    ) -> "TemporalEdgeStore":
        """Same structure (columns shared, zero-copy), new attribute block."""
        return TemporalEdgeStore(
            self.num_nodes,
            self.num_timesteps,
            self.src,
            self.dst,
            self.t,
            attributes,
            validate=attributes is not None,
            canonical=True,
        )

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total temporal edges ``M`` (the paper's Table I column)."""
        return int(self.src.size)

    @property
    def num_attributes(self) -> int:
        """Attribute dimensionality ``F``."""
        return self.attributes.shape[2]

    def num_edges_at(self, t: int) -> int:
        """Directed edge count of timestep ``t``."""
        self._check_t(t)
        return int(self.offsets[t + 1] - self.offsets[t])

    def edges_per_step(self) -> np.ndarray:
        """Per-timestep edge counts, shape ``(T,)`` (int64)."""
        return np.diff(self.offsets)

    def structural_nbytes(self) -> int:
        """Bytes held by the structural columns (O(M + T) memory)."""
        return (
            self.src.nbytes + self.dst.nbytes + self.t.nbytes
            + self.offsets.nbytes
        )

    def _check_t(self, t: int) -> None:
        if not 0 <= t < self.num_timesteps:
            raise IndexError(
                f"timestep {t} out of range 0..{self.num_timesteps - 1}"
            )

    # ------------------------------------------------------------------
    # per-timestep views
    # ------------------------------------------------------------------
    def edges_at(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(src, dst)`` column slices of timestep ``t``.

        Rows are sorted by ``(src, dst)`` — exactly CSR order.
        """
        self._check_t(t)
        lo, hi = self.offsets[t], self.offsets[t + 1]
        return self.src[lo:hi], self.dst[lo:hi]

    def csr_at(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Out-edge CSR of timestep ``t``: ``(indptr, indices)``, uncached.

        The one CSR construction; the bounded
        :class:`repro.workloads.cache.SnapshotPlanCache` caches it.
        ``indices`` is the zero-copy ``dst`` slice; ``indptr`` has shape
        ``(N + 1,)`` relative to that slice.
        """
        src, dst = self.edges_at(t)
        counts = np.bincount(src, minlength=self.num_nodes)
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, dst

    def csc_at(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """In-edge CSR (reverse index) of timestep ``t``, uncached.

        One O(M_t log M_t) sort of packed ``dst·N + src`` keys.
        """
        src, dst = self.edges_at(t)
        keys = dst * self.num_nodes + src
        keys.sort()
        return csr_from_keys(keys, self.num_nodes)

    def out_degrees_at(self, t: int) -> np.ndarray:
        """Out-degree per node at timestep ``t`` (int64, O(M_t + N))."""
        src, _ = self.edges_at(t)
        return np.bincount(src, minlength=self.num_nodes)

    def in_degrees_at(self, t: int) -> np.ndarray:
        """In-degree per node at timestep ``t`` (int64, O(M_t + N))."""
        _, dst = self.edges_at(t)
        return np.bincount(dst, minlength=self.num_nodes)

    def attributes_at(self, t: int) -> np.ndarray:
        """Zero-copy, read-only ``(N, F)`` attribute slice of timestep ``t``.

        The slice shares the store's attribute block; marking the view
        read-only (the base block stays untouched) keeps an in-place
        mutation of one snapshot view from silently corrupting every
        sibling view.  ``.copy()`` it to mutate.
        """
        self._check_t(t)
        view = self.attributes[t]
        view.flags.writeable = False
        return view

    def sparse_at(self, t: int):
        """:class:`SparseDirectedGraph` over timestep ``t`` (no re-sort)."""
        from repro.graph.sparse import SparseDirectedGraph

        src, dst = self.edges_at(t)
        return SparseDirectedGraph.from_sorted_edges(
            self.num_nodes, np.stack([src, dst], axis=1)
        )

    def dense_adjacency(self, t: int) -> np.ndarray:
        """Materialize the dense ``(N, N)`` 0/1 view of timestep ``t``.

        Legacy escape hatch — every call is counted (see
        :func:`track_dense_materializations`).  The returned array is
        read-only; ``.copy()`` it to mutate.
        """
        src, dst = self.edges_at(t)
        _record_materialization()
        adj = np.zeros((self.num_nodes, self.num_nodes))
        if src.size:
            adj[src, dst] = 1.0
        adj.flags.writeable = False
        return adj

    def temporal_edge_keys(self) -> np.ndarray:
        """Sorted composite ``((t·N) + src)·N + dst`` keys, one per edge.

        Canonical order makes the keys strictly increasing, so two
        stores intersect in O(M) with ``np.intersect1d`` — the privacy
        overlap kernel.
        """
        return _pack_keys(self.src, self.dst, self.t, self.num_nodes)

    # ------------------------------------------------------------------
    # whole-graph views
    # ------------------------------------------------------------------
    def snapshot(self, t: int):
        """:class:`GraphSnapshot` view of timestep ``t`` (no densify)."""
        from repro.graph.snapshot import GraphSnapshot

        self._check_t(t)
        return GraphSnapshot._from_store(self, t)

    def to_graph(self):
        """Wrap this store as a :class:`DynamicAttributedGraph`."""
        from repro.graph.dynamic import DynamicAttributedGraph

        return DynamicAttributedGraph.from_store(self)

    def slice_timesteps(self, start: int, stop: int) -> "TemporalEdgeStore":
        """Store over timesteps ``[start, stop)`` (zero-copy columns)."""
        if not 0 <= start < stop <= self.num_timesteps:
            raise IndexError(
                f"invalid timestep slice [{start}, {stop}) for "
                f"T={self.num_timesteps}"
            )
        lo, hi = self.offsets[start], self.offsets[stop]
        return TemporalEdgeStore(
            self.num_nodes,
            stop - start,
            self.src[lo:hi],
            self.dst[lo:hi],
            self.t[lo:hi] - start,
            self.attributes[start:stop],
            validate=False,
            canonical=True,
        )

    def copy(self) -> "TemporalEdgeStore":
        """Deep copy: fresh columns and attribute block, O(M + N·F·T)."""
        return TemporalEdgeStore(
            self.num_nodes,
            self.num_timesteps,
            self.src.copy(),
            self.dst.copy(),
            self.t.copy(),
            self.attributes.copy(),
            validate=False,
            canonical=True,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalEdgeStore):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.num_timesteps == other.num_timesteps
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.attributes, other.attributes)
        )

    def __repr__(self) -> str:
        return (
            f"TemporalEdgeStore(N={self.num_nodes}, M={self.num_edges}, "
            f"F={self.num_attributes}, T={self.num_timesteps})"
        )


class TemporalEdgeStoreBuilder:
    """Append-only builder: one :meth:`add_step` per generated timestep.

    Generators decode timestep ``t`` before ``t + 1``, so edges arrive
    already in temporal order; the builder canonicalizes each step
    (the store's packed-key canonicalization with ``t`` fixed to the
    step index) as it lands and the final :meth:`build` is a pair of
    concatenations — no global re-sort, no dense matrices.
    """

    def __init__(self, num_nodes: int, num_attributes: int = 0):
        self.num_nodes = int(num_nodes)
        self.num_attributes = int(num_attributes)
        self._srcs: List[np.ndarray] = []
        self._dsts: List[np.ndarray] = []
        self._attrs: List[np.ndarray] = []

    @property
    def num_steps(self) -> int:
        """Timesteps appended so far."""
        return len(self._srcs)

    def add_step(
        self,
        src,
        dst,
        attributes: Optional[np.ndarray] = None,
        *,
        canonical: bool = False,
    ) -> int:
        """Append one timestep of edges (+ its ``(N, F)`` attribute rows).

        ``canonical=True`` skips loop-drop/sort/dedup when the caller
        guarantees the columns already satisfy the store's invariants
        (e.g. the MixBernoulli decode's CSR-ordered output).  Returns
        the timestep index the edges landed in.
        """
        src = _as_int_column(src, "src")
        dst = _as_int_column(dst, "dst")
        if src.size != dst.size:
            raise ValueError(f"column lengths differ: {src.size}/{dst.size}")
        _check_endpoint_range(src, dst, self.num_nodes)
        step = len(self._srcs)
        _check_key_range(self.num_nodes, step + 1)
        if not canonical:
            src, dst, _ = _canonicalize_columns(
                src, dst, step, self.num_nodes
            )
        if attributes is None:
            attributes = np.zeros((self.num_nodes, self.num_attributes))
        attributes = np.asarray(attributes, dtype=np.float64)
        if attributes.shape != (self.num_nodes, self.num_attributes):
            raise ValueError(
                f"attributes must be ({self.num_nodes}, "
                f"{self.num_attributes}), got {attributes.shape}"
            )
        self._srcs.append(src)
        self._dsts.append(dst)
        self._attrs.append(attributes)
        return step

    def build(self) -> TemporalEdgeStore:
        """Assemble the store (columns concatenated, already canonical)."""
        if not self._srcs:
            raise ValueError("builder has no timesteps")
        t_col = np.repeat(
            np.arange(len(self._srcs), dtype=np.int64),
            [s.size for s in self._srcs],
        )
        return TemporalEdgeStore(
            self.num_nodes,
            len(self._srcs),
            np.concatenate(self._srcs),
            np.concatenate(self._dsts),
            t_col,
            np.stack(self._attrs),
            validate=False,
            canonical=True,
        )
