"""Merging per-shard edge columns back into canonical store order.

Shards own contiguous, ascending row ranges and each emits its rows in
CSR order, so within one timestep the k shard outputs are k sorted
runs over *disjoint, ordered* key ranges: the canonical merge is a
single concatenation (:func:`merge_step_columns`), verified cheaply at
the run boundaries.

The general case — k canonically-sorted ``(src, dst, t)`` runs whose
key ranges interleave (shard outputs from a custom non-contiguous
plan) — is handled by :func:`repro.graph.store.merge_canonical_runs`,
re-exported here for generation consumers: it packs every run into
``(t·N + src)·N + dst`` keys and canonicalizes them with one sort plus
adjacent diff, the same way every store builder does.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.store import merge_canonical_runs  # noqa: F401  (re-export)

__all__ = ["merge_step_columns", "merge_canonical_runs"]


def merge_step_columns(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(src, dst)`` outputs of one timestep.

    ``parts`` must be ordered by shard (ascending row ranges); each
    part is CSR-ordered within its range, so the merged columns are in
    canonical ``(src, dst)`` order by construction.  Boundary rows are
    checked (O(k)) to catch mis-ordered plans early.
    """
    kept: List[Tuple[np.ndarray, np.ndarray]] = [
        (s, d) for s, d in parts if s.size
    ]
    if not kept:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    for (prev_s, _), (next_s, _) in zip(kept[:-1], kept[1:]):
        if prev_s[-1] >= next_s[0]:
            raise ValueError(
                "shard outputs overlap or are out of order "
                f"(row {int(prev_s[-1])} >= row {int(next_s[0])})"
            )
    if len(kept) == 1:
        return kept[0]
    return (
        np.concatenate([s for s, _ in kept]),
        np.concatenate([d for _, d in kept]),
    )
