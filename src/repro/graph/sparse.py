"""Sparse adjacency utilities for larger-scale analytics.

The core pipeline uses dense ``(N, N)`` matrices (the MixBernoulli
decoder is inherently O(N²)), but the *analytics* side — degree
sequences, clustering, components — only needs the edge structure.
This module provides a light CSR-style representation plus sparse
implementations of the metrics that dominate at scale, so the metric
suite can score graphs an order of magnitude larger than the generator
itself handles.

All public metrics run as vectorized NumPy kernels over the CSR
arrays; the original per-element Python implementations are kept as
``_reference_*`` methods and serve as the ground truth for the parity
tests in ``tests/graph/test_sparse_parity.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.graph.snapshot import GraphSnapshot


def _ragged_gather_indices(
    starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Indices that concatenate ``arr[starts[i]:starts[i]+lengths[i]]``.

    The standard repeat/arange trick: element ``p`` of the output lies
    in segment ``s`` and equals ``starts[s] + (p - lengths[:s].sum())``.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    # cumulative-sum formulation: seed each segment boundary with the
    # jump from the previous segment's end to the next start, then one
    # cumsum yields every index (cheaper than variable-count np.repeat)
    keep = lengths > 0
    starts = starts[keep]
    lengths = lengths[keep]
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    bounds = np.cumsum(lengths)[:-1]
    steps[bounds] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(steps)


def dedup_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted-unique of packed int64 keys, sorting ``keys`` in place.

    The one dedup helper for packed ``row * N + col`` keys (edge
    canonicalization, the symmetrized CSR, the SCC condensation DAG
    and the BFS frontiers).  Sort plus an adjacent diff: on numpy 2.x
    a 1-D ``np.unique`` takes a hash path that costs an order of
    magnitude more on the few-thousand-key arrays these callers
    produce, and ``np.unique(axis=0)`` on ``(E, 2)`` rows more still.
    """
    if keys.size <= 1:
        return keys
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def split_keys(keys: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys // n, keys % n)`` of non-negative packed keys.

    One floor division and an in-place subtraction: ``np.divmod``'s
    int64 path costs several times more.
    """
    rows = keys // n
    cols = rows * n
    np.subtract(keys, cols, out=cols)
    return rows, cols


def csr_from_keys(
    keys: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of sorted-unique packed ``row * n + col`` keys."""
    rows, cols = split_keys(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


class SparseDirectedGraph:
    """CSR-like directed graph: out-edges grouped per source node."""

    def __init__(self, num_nodes: int, edges: np.ndarray):
        """``edges`` is an ``(E, 2)`` int array of (src, dst) pairs."""
        self.num_nodes = int(num_nodes)
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= self.num_nodes):
            raise ValueError("edge endpoints out of range")
        # One code path for empty and non-empty inputs: drop self-loops,
        # then dedup packed ``src * N + dst`` keys, whose sorted order
        # is lexicographic (src, dst) order — exactly CSR order.
        edges = edges[edges[:, 0] != edges[:, 1]]
        keys = dedup_keys(edges[:, 0] * self.num_nodes + edges[:, 1])
        self._edges = np.stack(split_keys(keys, self.num_nodes), axis=1)
        counts = np.bincount(self._edges[:, 0], minlength=self.num_nodes)
        self._offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        # lazily built symmetrized CSR view (indptr, indices)
        self._sym_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # lazily built weakly-connected component labels
        self._labels: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(cls, snapshot: GraphSnapshot) -> "SparseDirectedGraph":
        """Build the CSR view of a snapshot from its store columns."""
        return cls.from_sorted_edges(snapshot.num_nodes, snapshot.edge_array())

    @classmethod
    def from_sorted_edges(
        cls, num_nodes: int, edges: np.ndarray
    ) -> "SparseDirectedGraph":
        """Adopt an ``(E, 2)`` edge array already in canonical CSR order.

        The caller guarantees rows are sorted by ``(src, dst)``,
        deduplicated and loop-free (e.g. a
        :class:`~repro.graph.store.TemporalEdgeStore` timestep slice);
        skips the O(E log E) dedup canonicalization.
        """
        graph = cls.__new__(cls)
        graph.num_nodes = int(num_nodes)
        graph._edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        counts = np.bincount(graph._edges[:, 0], minlength=graph.num_nodes)
        graph._offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        graph._sym_csr = None
        graph._labels = None
        return graph

    def edge_array(self) -> np.ndarray:
        """The ``(E, 2)`` canonical edge array, sorted by ``(src, dst)``.

        A view of internal state — treat as read-only.
        """
        return self._edges

    def to_dense(self) -> np.ndarray:
        """Densify back to an ``(N, N)`` 0/1 matrix."""
        adj = np.zeros((self.num_nodes, self.num_nodes))
        if len(self._edges):
            adj[self._edges[:, 0], self._edges[:, 1]] = 1.0
        return adj

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._edges)

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbour ids of node ``v`` (CSR row slice, sorted)."""
        lo, hi = self._offsets[node], self._offsets[node + 1]
        return self._edges[lo:hi, 1]

    def has_edge(self, u: int, v: int) -> bool:
        """O(log d) directed edge membership via binary search.

        The CSR row slice of ``u`` is sorted by destination, so a
        ``searchsorted`` over it answers membership without scanning.
        """
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError("edge endpoints out of range")
        row = self.out_neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.size and int(row[pos]) == v

    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Out-degree per node, shape ``(N,)`` (int64 counts)."""
        return np.diff(self._offsets).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """In-degree per node, shape ``(N,)`` (int64 counts)."""
        if len(self._edges):
            return np.bincount(
                self._edges[:, 1], minlength=self.num_nodes
            ).astype(np.int64)
        return np.zeros(self.num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------
    # symmetrized structure
    # ------------------------------------------------------------------
    def symmetric_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of the symmetrized graph: ``(indptr, indices)``.

        Neighbour lists are sorted and deduplicated; built once and
        cached (all undirected metrics share it).
        """
        if self._sym_csr is None:
            src, dst = self._edges[:, 0], self._edges[:, 1]
            n = self.num_nodes
            keys = np.concatenate([src * n + dst, dst * n + src])
            self._sym_csr = csr_from_keys(dedup_keys(keys), n)
        return self._sym_csr

    def undirected_neighbor_sets(self) -> List[set]:
        """Per-node neighbour sets of the symmetrized graph."""
        indptr, indices = self.symmetric_csr()
        return [
            set(indices[indptr[i]:indptr[i + 1]].tolist())
            for i in range(self.num_nodes)
        ]

    # ------------------------------------------------------------------
    # vectorized metric kernels
    # ------------------------------------------------------------------
    def _triangle_links(self) -> np.ndarray:
        """Per-node count of connected (ordered) neighbour pairs.

        ``links[i]`` is the number of ordered pairs of neighbours of
        ``i`` that are themselves connected — ``2 ×`` triangles through
        ``i`` — the shared kernel behind clustering coefficients and
        the triangle count.

        Sorted-neighbour triangle counting with no per-node Python
        loop: CSR entries are globally sorted under the composite key
        ``row * N + col``, so "is ``w`` a neighbour of ``v``" for *all*
        wedges ``(u, v, w)`` at once is a single ``searchsorted`` of
        the wedge keys ``v * N + w`` into the CSR key array.  Work is
        O(#wedges · log d), fully vectorized; wedge batches are chunked
        to bound peak memory on heavy-tailed degree sequences.
        """
        indptr, indices = self.symmetric_csr()
        n = self.num_nodes
        deg = np.diff(indptr)
        n_entries = indices.size
        if n_entries == 0:
            return np.zeros(n)
        edge_src = np.repeat(np.arange(n, dtype=np.int64), deg)
        # membership oracle: a dense bool matrix is one fancy-indexed
        # gather per wedge (used while N² bits stay small); beyond that,
        # binary search of composite keys row*N+col over the CSR entries
        use_dense = n * n <= (1 << 24)
        if use_dense:
            member = np.zeros((n, n), dtype=bool)
            member[edge_src, indices] = True
        else:
            csr_keys = edge_src * n + indices  # globally sorted
        # |N(u) ∩ N(v)| is symmetric, so count once per undirected edge
        # (u < v), probing continuations from the *smaller* neighbour
        # list, then scatter the count to both endpoints
        half = edge_src < indices
        h_src = edge_src[half]
        h_dst = indices[half]
        swap = deg[h_dst] < deg[h_src]
        probe = np.where(swap, h_dst, h_src)
        other = np.where(swap, h_src, h_dst)
        lengths_all = deg[probe]
        links = np.zeros(n)
        n_half = h_src.size
        chunk = max(1 << 18, int(deg.max()) + 1)
        query_budget = np.cumsum(lengths_all)
        start = 0
        while start < n_half:
            stop = int(
                np.searchsorted(
                    query_budget, query_budget[start] + chunk, "left"
                )
            )
            stop = min(max(stop, start + 1), n_half)
            e_probe = probe[start:stop]
            e_other = other[start:stop]
            lengths = lengths_all[start:stop]
            wedge_v = np.repeat(e_other, lengths)
            wedge_w = indices[
                _ragged_gather_indices(indptr[e_probe], lengths)
            ]
            if use_dense:
                found = member[wedge_v, wedge_w]
            else:
                queries = wedge_v * n + wedge_w
                pos = np.minimum(
                    np.searchsorted(csr_keys, queries), n_entries - 1
                )
                found = csr_keys[pos] == queries
            eid = np.repeat(np.arange(stop - start), lengths)
            per_edge = np.bincount(eid[found], minlength=stop - start)
            links += np.bincount(
                h_src[start:stop], weights=per_edge, minlength=n
            )
            links += np.bincount(
                h_dst[start:stop], weights=per_edge, minlength=n
            )
            start = stop
        return links

    def clustering_coefficients(self) -> np.ndarray:
        """Local clustering per node on the symmetrized structure."""
        indptr, _ = self.symmetric_csr()
        deg = np.diff(indptr)
        cc = np.zeros(self.num_nodes)
        links = self._triangle_links()
        possible = deg * (deg - 1)
        np.divide(links, possible, out=cc, where=possible > 0)
        return cc

    def triangle_count(self) -> int:
        """Number of undirected triangles (links kernel summed / 6)."""
        return int(round(self._triangle_links().sum() / 6.0))

    def connected_component_labels(self) -> np.ndarray:
        """Weakly-connected component label per node (min node id wins).

        Min-label propagation with pointer jumping (see
        :meth:`connected_component_sizes`); each component ends up
        labelled by its smallest member.  Built once and cached.
        """
        if self._labels is not None:
            return self._labels
        n = self.num_nodes
        labels = np.arange(n, dtype=np.int64)
        if len(self._edges):
            u = self._edges[:, 0]
            v = self._edges[:, 1]
            while True:
                prev = labels.copy()
                np.minimum.at(labels, u, labels[v])
                np.minimum.at(labels, v, labels[u])
                # pointer jumping: labels only ever decrease, so this
                # telescopes chains without changing component identity
                while True:
                    jumped = labels[labels]
                    if np.array_equal(jumped, labels):
                        break
                    labels = jumped
                if np.array_equal(labels, prev):
                    break
        self._labels = labels
        return labels

    def connected_component_sizes(self) -> List[int]:
        """Weakly connected component sizes via min-label propagation.

        Each round pulls the minimum label across every edge
        (``np.minimum.at``) and then pointer-jumps (``labels[labels]``)
        until a fixed point; converges in O(log N) rounds on typical
        graphs with all per-edge work vectorized.
        """
        labels = self.connected_component_labels()
        sizes = np.bincount(labels, minlength=0)
        return sorted((int(s) for s in sizes[sizes > 0]), reverse=True)

    def wedge_count(self) -> int:
        """Number of undirected wedges (2-paths), from the degree vector."""
        indptr, _ = self.symmetric_csr()
        deg = np.diff(indptr)
        return int((deg * (deg - 1) // 2).sum())

    # ------------------------------------------------------------------
    # reference implementations (parity-test ground truth)
    # ------------------------------------------------------------------
    def _reference_undirected_neighbor_sets(self) -> List[set]:
        """Per-node neighbour sets built edge-by-edge (reference)."""
        nbrs: List[set] = [set() for _ in range(self.num_nodes)]
        for u, v in self._edges:
            nbrs[u].add(int(v))
            nbrs[v].add(int(u))
        return nbrs

    def _reference_clustering_coefficients(self) -> np.ndarray:
        """Set-intersection clustering (reference)."""
        nbrs = self._reference_undirected_neighbor_sets()
        cc = np.zeros(self.num_nodes)
        for i, ni in enumerate(nbrs):
            k = len(ni)
            if k < 2:
                continue
            links = 0
            for j in ni:
                links += len(ni & nbrs[j])
            cc[i] = links / (k * (k - 1))
        return cc

    def _reference_connected_component_sizes(self) -> List[int]:
        """Python union-find component sizes (reference)."""
        parent = np.arange(self.num_nodes)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for u, v in self._edges:
            ru, rv = find(int(u)), find(int(v))
            if ru != rv:
                parent[ru] = rv
        sizes: dict = {}
        for node in range(self.num_nodes):
            root = find(node)
            sizes[root] = sizes.get(root, 0) + 1
        return sorted(sizes.values(), reverse=True)

    def _reference_wedge_count(self) -> int:
        """Neighbour-set wedge count (reference)."""
        nbrs = self._reference_undirected_neighbor_sets()
        return int(sum(len(n) * (len(n) - 1) // 2 for n in nbrs))
