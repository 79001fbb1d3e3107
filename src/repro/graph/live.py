"""Live ingestion with epoch-consistent, near-zero-copy snapshots.

:class:`~repro.graph.streams.StreamingStoreBuilder` folds an *offline*
event stream into one store — ingestion finishes, then serving starts.
This module is the online counterpart for the reads-racing-writes
shape serving actually has: a :class:`LiveStoreBuilder` accepts events
while readers take immutable :class:`~repro.graph.store.TemporalEdgeStore`
snapshots of everything sealed so far.

Epoch model
-----------
Timesteps seal in order.  The builder's **epoch** is the number of
sealed timesteps: events for unsealed timesteps buffer per step;
:meth:`LiveStoreBuilder.seal_step` canonicalizes the lowest unsealed
step with the store's one canonicalization
(``repro.graph.store._canonicalize_columns`` with ``t`` fixed to the
step: loop-drop, sort and dedup of packed ``(t·N + src)·N + dst``
keys) and appends it to the frozen columns, advancing the epoch by
one.  Sealed data is immutable
forever; events targeting a sealed timestep are *late* and either
raise or are dropped-and-counted (``late_policy``).

Because timesteps seal in increasing order and each sealed block is
``(src, dst)``-sorted, the frozen columns are **always a canonical
prefix**: :meth:`LiveStoreBuilder.snapshot` returns
``(epoch, TemporalEdgeStore)`` whose ``(src, dst, t)`` columns are
zero-copy *views* of that prefix — no merge, no copy, O(T) for the
offsets.  Appends land in spare capacity past the prefix, so a
snapshot can never observe a torn write; capacity growth reallocates,
and old snapshots keep the old allocation alive through their views.

The consistency contract (pinned by ``tests/graph/test_live_epochs.py``
and ``docs/workloads.md``): **a query at epoch E is bit-identical to
the same query against a bulk-built store of E's sealed events.**
This holds by construction — per-step sealing and bulk
canonicalization share one kernel — and the test suite asserts it
across every batched kernel and per-query fallback.

Fault injection (``docs/reliability.md``): ``live.advance_epoch``
fires at the top of :meth:`~LiveStoreBuilder.seal_step` *before any
mutation*, so a failed seal leaves the builder unchanged and
retryable; ``live.snapshot`` fires in
:meth:`~LiveStoreBuilder.snapshot`, and the live query service
degrades a faulting refresh to serving the previous epoch.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.store import (
    TemporalEdgeStore,
    _as_int_column,
    _canonicalize_columns,
    _check_endpoint_range,
    _check_key_range,
)
from repro.reliability import fault_injector

__all__ = ["LiveStoreBuilder", "snapshot_owned_bytes"]

#: Initial frozen-column capacity (events); doubles as needed.
_INITIAL_CAPACITY = 1024


def snapshot_owned_bytes(store: TemporalEdgeStore) -> int:
    """Bytes of ``store``'s edge columns *not* shared with a builder.

    A live snapshot's ``(src, dst, t)`` columns are prefix views of
    the builder's frozen buffers, so this is 0 — the owned-bytes
    assertion behind the "snapshot is not a full-store copy" claim
    (``tests/graph/test_live_epochs.py``).  The O(T)
    ``offsets`` array and the by-reference attribute block are
    excluded: neither scales with M.
    """
    return sum(
        a.nbytes for a in (store.src, store.dst, store.t) if a.base is None
    )


class LiveStoreBuilder:
    """Ingest events and serve immutable epoch snapshots concurrently.

    Parameters
    ----------
    num_nodes, num_timesteps:
        The fixed universe ``N`` and sequence length ``T``.  Snapshots
        always span all ``T`` timesteps; unsealed timesteps are empty
        (queries against them are valid and return empty results).
        ``T·N²`` must fit in int64 (``ValueError`` otherwise).
    attributes:
        Optional ``(T, N, F)`` attribute block, fixed up front and
        attached to every snapshot by reference (live ingestion is
        structural; attribute plans never invalidate).
    late_policy:
        What to do with events targeting an already-sealed timestep:
        ``"error"`` (default) raises ``ValueError``; ``"drop"``
        discards them and counts :attr:`late_events`.
    initial_capacity:
        Starting frozen-column capacity in events (grows by doubling).

    All methods are thread-safe: one writer thread may
    ``extend``/``seal_step`` while any number of reader threads call
    :meth:`snapshot`.
    """

    def __init__(
        self,
        num_nodes: int,
        num_timesteps: int,
        *,
        attributes: Optional[np.ndarray] = None,
        late_policy: str = "error",
        initial_capacity: int = _INITIAL_CAPACITY,
    ):
        self.num_nodes = int(num_nodes)
        self.num_timesteps = int(num_timesteps)
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        if self.num_timesteps < 1:
            raise ValueError("num_timesteps must be >= 1")
        _check_key_range(self.num_nodes, self.num_timesteps)
        if late_policy not in ("error", "drop"):
            raise ValueError(
                f"unknown late_policy {late_policy!r}; "
                "expected 'error' or 'drop'"
            )
        if attributes is not None:
            attributes = np.asarray(attributes, dtype=np.float64)
            if attributes.shape[:2] != (self.num_timesteps, self.num_nodes):
                raise ValueError(
                    f"attributes must be (T={self.num_timesteps}, "
                    f"N={self.num_nodes}, F), got {attributes.shape}"
                )
            if attributes.size and not np.all(np.isfinite(attributes)):
                raise ValueError("attributes contain non-finite values")
        self.late_policy = late_policy
        self._attributes = attributes
        cap = max(int(initial_capacity), 16)
        self._fsrc = np.empty(cap, dtype=np.int64)
        self._fdst = np.empty(cap, dtype=np.int64)
        self._ft = np.empty(cap, dtype=np.int64)
        self._flen = 0
        self._sealed = 0  # sealed timesteps == epoch
        self._pending_src: Dict[int, List[np.ndarray]] = {}
        self._pending_dst: Dict[int, List[np.ndarray]] = {}
        self._events_ingested = 0
        self._pending_events = 0
        self._late_events = 0
        self._lock = threading.Lock()
        self._cached: Optional[Tuple[int, TemporalEdgeStore]] = None

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Sealed timesteps so far — the current snapshot epoch."""
        return self._sealed

    @property
    def events_ingested(self) -> int:
        """Raw events accepted (pre-dedup, excluding dropped late ones)."""
        return self._events_ingested

    @property
    def pending_events(self) -> int:
        """Raw events buffered in unsealed timesteps."""
        return self._pending_events

    @property
    def sealed_events(self) -> int:
        """Canonical (deduplicated, loop-free) events in the frozen prefix."""
        return self._flen

    @property
    def late_events(self) -> int:
        """Events dropped for targeting sealed timesteps (``late_policy="drop"``)."""
        return self._late_events

    # ------------------------------------------------------------------
    # ingestion (writer side)
    # ------------------------------------------------------------------
    def add(self, u: int, v: int, t: int) -> int:
        """Buffer one event ``(u, v, t)``; returns events accepted (0 or 1)."""
        return self.extend(
            np.array([u], dtype=np.int64),
            np.array([v], dtype=np.int64),
            np.array([t], dtype=np.int64),
        )

    def extend(self, src, dst, t) -> int:
        """Buffer a batch of events given as parallel columns.

        Events may target any *unsealed* timestep in any order; events
        for sealed timesteps follow ``late_policy``.  Returns the
        number of events accepted.
        """
        src = _as_int_column(src, "src")
        dst = _as_int_column(dst, "dst")
        t = _as_int_column(t, "t")
        if not (src.size == dst.size == t.size):
            raise ValueError(
                f"column lengths differ: {src.size}/{dst.size}/{t.size}"
            )
        if not src.size:
            return 0
        _check_endpoint_range(src, dst, self.num_nodes)
        if t.min() < 0 or t.max() >= self.num_timesteps:
            raise ValueError("edge timesteps out of range")
        with self._lock:
            late = t < self._sealed
            if late.any():
                n_late = int(late.sum())
                if self.late_policy == "error":
                    raise ValueError(
                        f"{n_late} events target sealed timesteps "
                        f"(epoch {self._sealed}); use late_policy='drop' "
                        "to discard-and-count instead"
                    )
                self._late_events += n_late
                keep = ~late
                src, dst, t = src[keep], dst[keep], t[keep]
                if not src.size:
                    return 0
            order = np.argsort(t, kind="stable")
            s_src, s_dst, s_t = src[order], dst[order], t[order]
            boundaries = np.flatnonzero(np.r_[True, s_t[1:] != s_t[:-1]])
            for start, stop in zip(
                boundaries, np.r_[boundaries[1:], s_t.size]
            ):
                step = int(s_t[start])
                self._pending_src.setdefault(step, []).append(
                    s_src[start:stop]
                )
                self._pending_dst.setdefault(step, []).append(
                    s_dst[start:stop]
                )
            self._events_ingested += src.size
            self._pending_events += src.size
            return int(src.size)

    def _reserve_locked(self, needed: int) -> None:
        """Grow frozen capacity to ``needed`` (doubling; copies the prefix).

        Old snapshots hold views of the old allocation, which stays
        alive (and immutable) through them — growth never tears a
        published snapshot.
        """
        cap = self._fsrc.size
        if needed <= cap:
            return
        new_cap = max(cap * 2, needed)
        for name in ("_fsrc", "_fdst", "_ft"):
            old = getattr(self, name)
            fresh = np.empty(new_cap, dtype=np.int64)
            fresh[: self._flen] = old[: self._flen]
            setattr(self, name, fresh)

    def seal_step(self) -> int:
        """Seal the lowest unsealed timestep; returns the new epoch.

        Canonicalizes that step's buffered events and appends them to
        the frozen prefix.  Atomic under faults: the
        ``live.advance_epoch`` injection point fires *before any
        mutation*, so a raised fault leaves the builder unchanged and
        the seal retryable.
        """
        with self._lock:
            step = self._sealed
            if step >= self.num_timesteps:
                raise ValueError(
                    f"all {self.num_timesteps} timesteps already sealed"
                )
            fault_injector.fire("live.advance_epoch", key=step)
            batches = self._pending_src.get(step)
            if batches:
                src = np.concatenate(batches)
                dst = np.concatenate(self._pending_dst[step])
                raw = src.size
                src, dst, _ = _canonicalize_columns(
                    src, dst, step, self.num_nodes
                )
            else:
                raw = 0
                src = dst = np.zeros(0, dtype=np.int64)
            k = src.size
            self._reserve_locked(self._flen + k)
            self._fsrc[self._flen : self._flen + k] = src
            self._fdst[self._flen : self._flen + k] = dst
            self._ft[self._flen : self._flen + k] = step
            self._flen += k
            self._pending_src.pop(step, None)
            self._pending_dst.pop(step, None)
            self._pending_events -= raw
            self._sealed = step + 1
            self._cached = None
            return self._sealed

    def seal_through(self, t: int) -> int:
        """Seal every timestep up to and including ``t``; returns the epoch."""
        if not 0 <= t < self.num_timesteps:
            raise IndexError(
                f"timestep {t} out of range 0..{self.num_timesteps - 1}"
            )
        while self._sealed <= t:
            self.seal_step()
        return self._sealed

    # ------------------------------------------------------------------
    # snapshots (reader side)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[int, TemporalEdgeStore]:
        """``(epoch, store)`` over the sealed prefix — near-zero-copy.

        The store's columns are views of the frozen prefix (no merge,
        no copy; :func:`snapshot_owned_bytes` is 0), its ``offsets``
        is the only fresh O(T) array, and the attribute block is
        attached by reference.  Repeated calls at the same epoch
        return the identical store object.  Buffered (unsealed) events
        are invisible until sealed.
        """
        fault_injector.fire("live.snapshot", key=self._sealed)
        with self._lock:
            if self._cached is not None:
                return self._cached
            store = TemporalEdgeStore(
                self.num_nodes,
                self.num_timesteps,
                self._fsrc[: self._flen],
                self._fdst[: self._flen],
                self._ft[: self._flen],
                self._attributes,
                validate=False,
                canonical=True,
            )
            self._cached = (self._sealed, store)
            return self._cached

    def freeze(self) -> TemporalEdgeStore:
        """Seal every remaining timestep and return the final snapshot.

        The result equals a bulk-built
        :class:`~repro.graph.store.TemporalEdgeStore` over every
        accepted event — the end-of-stream handoff from live serving
        back to the offline world.
        """
        while self._sealed < self.num_timesteps:
            self.seal_step()
        return self.snapshot()[1]

    def __repr__(self) -> str:
        return (
            f"LiveStoreBuilder(N={self.num_nodes}, T={self.num_timesteps}, "
            f"epoch={self._sealed}, sealed_events={self._flen}, "
            f"pending={self._pending_events})"
        )
