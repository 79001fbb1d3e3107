"""Temporal random-walk machinery shared by TagGen / TGGAN / TIGGER.

A *temporal walk* is a sequence of (node, time) pairs where consecutive
steps traverse edges whose timestamps are close (within a window), the
sampling scheme introduced by TagGen [68] and reused (truncated /
RNN-modelled) by its successors.  Walk *merging* assembles a generated
edge stream by accumulating the transitions of many sampled walks and
keeping the most frequent edges per timestep until the target density
is met — the expensive assembly step the paper's efficiency evaluation
highlights.

The sampler reads a :class:`~repro.graph.store.TemporalEdgeStore`'s
``(src, dst, t)`` columns, and merging emits edge lists straight into a
:class:`~repro.graph.store.TemporalEdgeStoreBuilder` — no dense
``(N, N)`` matrices anywhere on the walk-baseline fit/generate path.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph import DynamicAttributedGraph
from repro.graph.store import TemporalEdgeStore, TemporalEdgeStoreBuilder

Walk = List[Tuple[int, int]]  # [(node, time), ...]


class TemporalWalkSampler:
    """Samples temporal random walks from an observed edge store.

    The symmetrized edges are stored as flat arrays sorted by
    ``(node, time)``; a walk step for *all* active walks at once then
    reduces to two ``searchsorted`` calls (the per-walk candidate window
    ``|t' - t| <= w`` is a contiguous slice of each node's time-sorted
    row) plus one vectorized uniform pick — no per-candidate Python
    work.  :meth:`sample_walk` keeps the original scalar sampler as the
    parity reference (its adjacency dict is built lazily on first use).
    """

    def __init__(
        self,
        store: TemporalEdgeStore,
        time_window: int = 2,
        seed: int = 0,
    ):
        self.store = store
        self.time_window = time_window
        self.rng = np.random.default_rng(seed)
        # scalar-reference structures, built lazily (see _scalar_index)
        self._adj: Optional[Dict[int, List[Tuple[int, int]]]] = None
        self._starts: Optional[List[Tuple[int, int]]] = None
        # flat (node, time)-sorted arrays for the batched sampler
        e_src, e_dst, e_t = store.src, store.dst, store.t
        if e_src.size:
            src = np.concatenate([e_src, e_dst])
            dst = np.concatenate([e_dst, e_src])
            tim = np.concatenate([e_t, e_t])
            order = np.lexsort((tim, src))
            self._flat_dst = dst[order]
            self._flat_t = tim[order]
            self._t_min = int(tim.min())
            self._t_span = int(tim.max()) - self._t_min + 1
            # composite (node, time) sort key: per-node slices stay
            # time-sorted, so one searchsorted bounds a time window
            self._flat_key = src[order] * self._t_span + tim[order] - self._t_min
            self._start_u = e_src
            self._start_t = e_t
        else:
            self._flat_dst = np.zeros(0, dtype=np.int64)
            self._flat_t = np.zeros(0, dtype=np.int64)
            self._flat_key = np.zeros(0, dtype=np.int64)
            self._t_min = 0
            self._t_span = 1
            self._start_u = np.zeros(0, dtype=np.int64)
            self._start_t = np.zeros(0, dtype=np.int64)

    def _scalar_index(self) -> Tuple[Dict[int, List[Tuple[int, int]]], List[Tuple[int, int]]]:
        """Per-edge Python structures for the reference scalar sampler."""
        if self._adj is None:
            adj: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
            starts: List[Tuple[int, int]] = []
            store = self.store
            for u, v, t in zip(
                store.src.tolist(), store.dst.tolist(), store.t.tolist()
            ):
                adj[u].append((v, t))
                adj[v].append((u, t))
                starts.append((u, t))
            self._adj = adj
            self._starts = starts
        return self._adj, self._starts

    def sample_walk(self, length: int) -> Optional[Walk]:
        """One temporal walk of at most ``length`` (node, time) steps."""
        adj, starts = self._scalar_index()
        if not starts:
            return None
        u, t = starts[self.rng.integers(len(starts))]
        walk: Walk = [(u, t)]
        for _ in range(length - 1):
            candidates = [
                (v, tv)
                for v, tv in adj.get(u, [])
                if abs(tv - t) <= self.time_window
            ]
            if not candidates:
                break
            u, t = candidates[self.rng.integers(len(candidates))]
            walk.append((u, t))
        return walk

    def sample_walks(self, count: int, length: int) -> List[Walk]:
        """Draw up to ``count`` time-respecting walks, batch-stepped.

        All walks advance together: per step, each active walk's
        candidate slice ``[t - w, t + w]`` within its current node's
        time-sorted row is located with two vectorized ``searchsorted``
        calls and one candidate is drawn uniformly.  Walks that reach a
        node with no in-window continuation retire; walks shorter than
        two steps are dropped, as before.
        """
        if count < 1 or length < 2 or self._start_u.size == 0:
            return []  # walks shorter than 2 steps are filtered anyway
        w = self.time_window
        picks = self.rng.integers(self._start_u.size, size=count)
        cur_u = self._start_u[picks].copy()
        cur_t = self._start_t[picks].copy()
        nodes = np.full((count, length), -1, dtype=np.int64)
        times = np.zeros((count, length), dtype=np.int64)
        nodes[:, 0] = cur_u
        times[:, 0] = cur_t
        lengths = np.ones(count, dtype=np.int64)
        active = np.ones(count, dtype=bool)
        for step in range(1, length):
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            au, at = cur_u[idx], cur_t[idx]
            base = au * self._t_span - self._t_min
            lo = np.searchsorted(
                self._flat_key, base + np.maximum(at - w, self._t_min), "left"
            )
            hi = np.searchsorted(
                self._flat_key,
                base + np.minimum(at + w, self._t_min + self._t_span - 1),
                "right",
            )
            counts = hi - lo
            has_next = counts > 0
            stepping = idx[has_next]
            active[idx[~has_next]] = False
            if stepping.size == 0:
                break
            chosen = lo[has_next] + (
                self.rng.random(stepping.size) * counts[has_next]
            ).astype(np.int64)
            cur_u[stepping] = self._flat_dst[chosen]
            cur_t[stepping] = self._flat_t[chosen]
            nodes[stepping, step] = cur_u[stepping]
            times[stepping, step] = cur_t[stepping]
            lengths[stepping] = step + 1
        walks: List[Walk] = []
        for i in range(count):
            n_steps = int(lengths[i])
            if n_steps < 2:
                continue
            walks.append(
                list(zip(nodes[i, :n_steps].tolist(), times[i, :n_steps].tolist()))
            )
        return walks


def walk_transition_counts(
    walks: Sequence[Walk], num_nodes: int, num_timesteps: int
) -> Counter:
    """Count per-timestep edge transitions across walks."""
    counts: Counter = Counter()
    for walk in walks:
        for (u, tu), (v, tv) in zip(walk, walk[1:]):
            if u == v:
                continue
            t = min(max(tv, 0), num_timesteps - 1)
            counts[(u, v, t)] += 1
    return counts


def merge_walks_into_graph(
    walks: Sequence[Walk],
    num_nodes: int,
    num_timesteps: int,
    edges_per_step: Sequence[int],
    rng: np.random.Generator,
) -> DynamicAttributedGraph:
    """Assemble a dynamic graph from walks (the merging stage).

    Keeps, per timestep, the highest-multiplicity transitions until the
    target edge count ``edges_per_step[t]`` is reached; pads with
    frequency-weighted random edges when walks under-cover a step.
    Edges stream into a store builder — the output graph is
    store-backed and no dense matrix is materialized.
    """
    counts = walk_transition_counts(walks, num_nodes, num_timesteps)
    per_step: Dict[int, List[Tuple[int, Tuple[int, int]]]] = defaultdict(list)
    for (u, v, t), c in counts.items():
        per_step[t].append((c, (u, v)))

    node_freq = np.ones(num_nodes)
    for walk in walks:
        for u, _ in walk:
            node_freq[u] += 1
    node_probs = node_freq / node_freq.sum()

    builder = TemporalEdgeStoreBuilder(num_nodes, 0)
    for t in range(num_timesteps):
        placed_pairs: set = set()
        target = int(edges_per_step[min(t, len(edges_per_step) - 1)])
        ranked = sorted(per_step.get(t, []), reverse=True)
        for _, (u, v) in ranked:
            if len(placed_pairs) >= target:
                break
            placed_pairs.add((u, v))
        # pad with walk-frequency-weighted random edges, drawn in
        # batches (per-pair rng.choice calls re-scan the probability
        # vector every time; one batched draw amortizes that)
        attempts = 0
        max_attempts = target * 20
        while len(placed_pairs) < target and attempts < max_attempts:
            placed = len(placed_pairs)
            batch = min(max(2 * (target - placed), 8), max_attempts - attempts)
            pairs = rng.choice(num_nodes, size=(batch, 2), p=node_probs)
            attempts += batch
            for u, v in pairs:
                if len(placed_pairs) >= target:
                    break
                if u != v:
                    placed_pairs.add((int(u), int(v)))
        if placed_pairs:
            # sorted unique loop-free pairs are already canonical
            arr = np.asarray(sorted(placed_pairs), dtype=np.int64)
            builder.add_step(arr[:, 0], arr[:, 1], canonical=True)
        else:
            builder.add_step(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
            )
    return DynamicAttributedGraph.from_store(builder.build())
