"""Continuous-time interaction streams and snapshot discretization.

The paper's datasets (Emails-DNC, Bitcoin-Alpha, Wiki-Vote, GDELT, ...)
are natively *continuous-time* edge streams: each interaction is a
``(src, dst, timestamp)`` event with a real-valued timestamp.  The
paper evaluates on *discrete* snapshot sequences obtained by bucketing
those events into ``T`` windows (§II-A).  This module provides that
bridge:

* :class:`InteractionStream` — ``(src, dst, time)`` columns sorted by
  time, with validation, slicing, merging and summary statistics.
* Discretization policies mapping a stream onto ``T`` snapshot buckets,
  each returning one bucket id per event: :func:`uniform_windows`
  (equal-width time windows, what the paper uses),
  :func:`equal_count_windows` (equal events per snapshot, useful for
  bursty streams), and :func:`session_windows` (gap-based
  segmentation).
* :func:`discretize` — apply a policy and build the
  :class:`~repro.graph.dynamic.DynamicAttributedGraph` in one store
  construction (structure, plus an optional attribute block).

The inverse direction (snapshots back to a stream with synthetic
within-window timestamps) is :func:`to_stream`.

For event volumes that should never be resident at once, the
*streaming ingestion* path (:class:`StreamingStoreBuilder`,
:func:`ingest_stream`) folds arbitrarily long integer-timestep
``(src, dst, t)`` event streams into a canonical
:class:`~repro.graph.store.TemporalEdgeStore` under a configurable
memory budget: events accumulate in fixed-size column chunks, each
full chunk is canonicalized into packed int64 edge keys and merged
into tiered key runs — the unsorted working set is one chunk, never
the whole stream (the peak bound is in :func:`ingest_stream`).

Both of the above are *offline*: ingestion completes before the store
is read.  The online counterpart — accepting events while readers
take immutable epoch snapshots, the query-while-ingesting shape of
the live serving tier — is :class:`~repro.graph.live.LiveStoreBuilder`
in :mod:`repro.graph.live`; its per-timestep sealing shares the
store's canonicalization kernel, so a finished live stream and an
:func:`ingest_stream` run over the same events build equal stores.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.dynamic import DynamicAttributedGraph
from repro.graph.sparse import dedup_keys
from repro.graph.store import (
    TemporalEdgeStore,
    _canonical_keys,
    _check_key_range,
    _pack_keys,
    _unpack_keys,
)
from repro.reliability import CheckpointError, fault_injector


@dataclass(frozen=True)
class StreamStatistics:
    """Summary of an interaction stream."""

    num_nodes: int
    num_events: int
    time_span: float
    events_per_node: float
    unique_pairs: int

    def __str__(self) -> str:
        return (
            f"N={self.num_nodes} events={self.num_events} "
            f"span={self.time_span:.3g} pairs={self.unique_pairs}"
        )


class InteractionStream:
    """Timestamped directed interactions as three columns.

    Parameters
    ----------
    num_nodes:
        Size of the node universe; endpoints must be in ``[0, N)``.
    src, dst, time:
        Parallel event columns (int64, int64, float64).  They are
        sorted by time on construction; ties keep input order (stable
        sort).  The sorted columns are read-only attributes.

    Self-loops are rejected (matching :class:`GraphSnapshot`), as are
    non-finite timestamps; the error names the first offending event.
    Iteration yields Python ``(u, v, t)`` tuples.
    """

    def __init__(self, num_nodes: int, src=(), dst=(), time=()):
        self.num_nodes = int(num_nodes)
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        time = np.asarray(time, dtype=np.float64).reshape(-1)
        if not (src.size == dst.size == time.size):
            raise ValueError(
                f"column lengths differ: {src.size}/{dst.size}/{time.size}"
            )
        out_of_range = (
            (src < 0) | (src >= self.num_nodes)
            | (dst < 0) | (dst >= self.num_nodes)
        )
        bad = np.flatnonzero(out_of_range | (src == dst) | ~np.isfinite(time))
        if bad.size:
            i = bad[0]
            u, v = int(src[i]), int(dst[i])
            if out_of_range[i]:
                raise ValueError(f"event endpoints ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop event on node {u}")
            raise ValueError(f"non-finite timestamp {float(time[i])}")
        order = np.argsort(time, kind="stable")
        self.src, self.dst, self.time = src[order], dst[order], time[order]
        for col in (self.src, self.dst, self.time):
            col.flags.writeable = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.time.size

    def __iter__(self):
        return zip(self.src.tolist(), self.dst.tolist(), self.time.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionStream):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.time, other.time)
        )

    def __repr__(self) -> str:
        return f"InteractionStream({self.statistics()})"

    @property
    def start_time(self) -> float:
        """Timestamp of the earliest event (raises on empty streams)."""
        if not len(self):
            raise ValueError("empty stream has no start time")
        return float(self.time[0])

    @property
    def end_time(self) -> float:
        """Timestamp of the latest event (raises on empty streams)."""
        if not len(self):
            raise ValueError("empty stream has no end time")
        return float(self.time[-1])

    def statistics(self) -> StreamStatistics:
        """Node/event/span summary of the stream."""
        n = len(self)
        return StreamStatistics(
            num_nodes=self.num_nodes,
            num_events=n,
            time_span=(self.end_time - self.start_time) if n else 0.0,
            events_per_node=n / self.num_nodes,
            unique_pairs=dedup_keys(self.src * self.num_nodes + self.dst).size,
        )

    # ------------------------------------------------------------------
    def _sliced(self, index) -> "InteractionStream":
        return InteractionStream(
            self.num_nodes, self.src[index], self.dst[index], self.time[index]
        )

    def between(self, t0: float, t1: float) -> "InteractionStream":
        """Events with ``t0 <= time < t1`` (binary search, O(log n + k))."""
        lo, hi = np.searchsorted(self.time, [t0, t1], side="left")
        return self._sliced(slice(lo, hi))

    def merged(self, other: "InteractionStream") -> "InteractionStream":
        """Union of two streams over the same node universe.

        On tied timestamps, ``self``'s events come first.
        """
        if other.num_nodes != self.num_nodes:
            raise ValueError(
                f"cannot merge streams over {self.num_nodes} and "
                f"{other.num_nodes} nodes"
            )
        return InteractionStream(
            self.num_nodes,
            np.concatenate([self.src, other.src]),
            np.concatenate([self.dst, other.dst]),
            np.concatenate([self.time, other.time]),
        )

    def shifted(self, delta: float) -> "InteractionStream":
        """Stream with all timestamps translated by ``delta``."""
        return InteractionStream(
            self.num_nodes, self.src, self.dst, self.time + delta
        )

    def subsampled(
        self, max_events: int, rng: np.random.Generator
    ) -> "InteractionStream":
        """Uniformly keep at most ``max_events`` events."""
        if len(self) <= max_events:
            return self._sliced(slice(None))
        idx = rng.choice(len(self), size=max_events, replace=False)
        return self._sliced(np.sort(idx))

    def inter_event_times(self) -> np.ndarray:
        """Gaps between consecutive events (empty for < 2 events)."""
        return np.diff(self.time)


# ----------------------------------------------------------------------
# Discretization policies: stream -> one bucket id per event
# ----------------------------------------------------------------------
#: A policy maps a stream and a target T to an int64 ``(num_events,)``
#: column of bucket ids in ``[0, T)``, non-decreasing in time order.
DiscretizationPolicy = Callable[[InteractionStream, int], np.ndarray]


def uniform_windows(
    stream: InteractionStream,
    num_timesteps: int,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> np.ndarray:
    """Equal-width time windows over ``[t0, t1]`` (the paper's choice).

    The span defaults to the stream's own ``[start, end]``; pass ``t0`` /
    ``t1`` to pin it (e.g. ``functools.partial(uniform_windows, t0=0.0,
    t1=T)`` makes :func:`to_stream` followed by :func:`discretize` an
    exact round trip even when boundary snapshots are empty).  A pinned
    span must hold every event.  The final window is closed on the
    right so an event at ``t1`` lands in bucket ``T - 1``.
    """
    _check_discretization_args(stream, num_timesteps)
    t0 = stream.start_time if t0 is None else float(t0)
    t1 = stream.end_time if t1 is None else float(t1)
    if t1 < t0:
        raise ValueError(f"invalid window span [{t0}, {t1}]")
    outside = np.count_nonzero((stream.time < t0) | (stream.time > t1))
    if outside:
        raise ValueError(
            f"{outside} of {len(stream)} events lie outside [{t0}, {t1}]"
        )
    width = (t1 - t0) / num_timesteps
    if width == 0:
        return np.zeros(len(stream), dtype=np.int64)
    return np.minimum(
        ((stream.time - t0) / width).astype(np.int64), num_timesteps - 1
    )


def equal_count_windows(
    stream: InteractionStream, num_timesteps: int
) -> np.ndarray:
    """Windows holding (almost) equal numbers of events.

    Bursty streams produce near-empty snapshots under uniform windows;
    equal-count windows keep per-snapshot edge counts stable instead.
    Events are never split across buckets out of time order.
    """
    _check_discretization_args(stream, num_timesteps)
    ids = np.arange(num_timesteps, dtype=np.int64)
    base, extra = divmod(len(stream), num_timesteps)
    return np.repeat(ids, base + (ids < extra))  # counts differ by <= 1


def session_windows(
    stream: InteractionStream, num_timesteps: int
) -> np.ndarray:
    """Gap-based segmentation merged down to ``T`` buckets.

    Splits the stream at its ``T - 1`` largest inter-event gaps — the
    natural "session" boundaries of activity-driven networks (Perra et
    al., 2012).  With fewer than ``T`` events, trailing buckets are
    empty.
    """
    _check_discretization_args(stream, num_timesteps)
    n = len(stream)
    if n <= num_timesteps:
        return np.arange(n, dtype=np.int64)
    gaps = stream.inter_event_times()
    # indices i where a boundary is placed between event i and i+1
    cut_after = np.sort(np.argsort(-gaps)[: num_timesteps - 1])
    return np.searchsorted(cut_after, np.arange(n), side="left").astype(
        np.int64
    )


def _check_discretization_args(
    stream: InteractionStream, num_timesteps: int
) -> None:
    if num_timesteps <= 0:
        raise ValueError("num_timesteps must be positive")
    if not len(stream):
        raise ValueError("cannot discretize an empty stream")


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------
def discretize(
    stream: InteractionStream,
    num_timesteps: int,
    policy: DiscretizationPolicy = uniform_windows,
    attributes: Optional[np.ndarray] = None,
) -> DynamicAttributedGraph:
    """Bucket a stream into a ``T``-snapshot dynamic graph.

    Repeated interactions within one window collapse into a single
    directed edge (the paper's snapshot model is unweighted).

    Parameters
    ----------
    stream:
        The continuous-time interaction stream.
    num_timesteps:
        Number of snapshots ``T``.
    policy:
        Windowing policy; one of :func:`uniform_windows` (default),
        :func:`equal_count_windows`, :func:`session_windows`, or any
        callable with the same signature.  Its bucket column must be
        integer, one entry per event, in ``[0, T)``.
    attributes:
        Optional ``(T, N, F)`` attribute tensor attached verbatim.
    """
    bucket = np.asarray(policy(stream, num_timesteps))
    if bucket.shape != (len(stream),) or bucket.dtype.kind not in "iu":
        raise ValueError(
            f"policy returned a {bucket.dtype} {bucket.shape} bucket "
            f"column, expected integers of shape ({len(stream)},)"
        )
    if bucket.size and (bucket.min() < 0 or bucket.max() >= num_timesteps):
        raise ValueError(f"policy bucket ids out of range 0..{num_timesteps - 1}")
    return DynamicAttributedGraph.from_store(
        TemporalEdgeStore(
            stream.num_nodes, num_timesteps,
            stream.src, stream.dst, bucket, attributes,
        )
    )


def to_stream(
    graph: DynamicAttributedGraph,
    window: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> InteractionStream:
    """Expand snapshots back into a continuous-time stream.

    Each edge of snapshot ``t`` becomes one event with a timestamp in
    ``[t * window, (t + 1) * window)``: at the window midpoint when
    ``rng`` is ``None``, or uniform within the window otherwise.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    store = graph.store  # canonical columns, sorted by (t, src, dst)
    if rng is None:
        times = store.t * window + window / 2
    else:
        times = store.t * window + rng.uniform(0.0, window, size=store.num_edges)
    return InteractionStream(graph.num_nodes, store.src, store.dst, times)


# ----------------------------------------------------------------------
# Bounded-memory streaming ingestion
# ----------------------------------------------------------------------

#: Upper bound on transient bytes per buffered event while a chunk is
#: canonicalized: three int64 columns (24) + packed keys (8) + their
#: filtered or deduplicated copy (8) + a mask (1); ~42 traced.
_BYTES_PER_EVENT = 64

#: Floor on the derived chunk size — below this the per-chunk numpy
#: call overhead dominates and the merge tier count explodes.
_MIN_CHUNK_EVENTS = 256

_CHECKPOINT_MAGIC = "repro-ingest-checkpoint"
_CHECKPOINT_VERSION = 1


def _checkpoint_digest(
    num_nodes: int,
    num_timesteps: int,
    chunk_events: int,
    events_ingested: int,
    runs: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> str:
    """SHA-256 over a checkpoint's logical payload (meta + run columns)."""
    h = hashlib.sha256()
    h.update(
        f"{num_nodes},{num_timesteps},{chunk_events},"
        f"{events_ingested},{len(runs)}".encode()
    )
    for src, dst, t in runs:
        for col in (src, dst, t):
            h.update(str(col.size).encode())
            h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


class StreamingStoreBuilder:
    """Fold an unbounded ``(src, dst, t)`` event stream into a store.

    The spill-free counterpart of
    :class:`~repro.graph.store.TemporalEdgeStoreBuilder` for producers
    that deliver events in arbitrary order and volume (ingestion
    pipelines, logs, generators running elsewhere).  Events accumulate
    in a fixed-size column chunk; each full chunk is canonicalized
    into sorted-unique packed keys in O(C log C) and merged into
    *tiered key runs* (8 bytes an edge): a new run is merged with its
    neighbour (concatenate, sort, dedup) whenever the neighbour is
    less than twice its size, so at most O(log(M / C)) runs exist at
    any time and total merge work is O(M log(M / C)) — never a
    full-stream sort, never more than one chunk of unsorted data
    resident.

    Parameters
    ----------
    num_nodes, num_timesteps:
        The store's fixed universe ``N`` and sequence length ``T``;
        endpoints and timesteps are range-checked on arrival.
    chunk_events:
        Events per chunk (the bounded working set).  Default 65536.
    memory_budget_bytes:
        Alternative sizing: the chunk is sized so its transient
        canonicalization working set (``_BYTES_PER_EVENT``) stays
        under the budget.  Overrides ``chunk_events``.

    ``build()`` may be called at any point — it compacts the runs into
    one key run and returns a store of its unpacked columns; ingestion
    can continue afterwards and ``build()`` again later.
    """

    def __init__(
        self,
        num_nodes: int,
        num_timesteps: int,
        *,
        chunk_events: int = 65536,
        memory_budget_bytes: Optional[int] = None,
    ):
        self.num_nodes = int(num_nodes)
        self.num_timesteps = int(num_timesteps)
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.num_timesteps < 1:
            raise ValueError("num_timesteps must be >= 1")
        _check_key_range(self.num_nodes, self.num_timesteps)
        if memory_budget_bytes is not None:
            if memory_budget_bytes <= 0:
                raise ValueError("memory_budget_bytes must be positive")
            chunk_events = memory_budget_bytes // _BYTES_PER_EVENT
        self.chunk_events = max(int(chunk_events), _MIN_CHUNK_EVENTS)
        self._buf: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._buffered = 0
        self._scalar_buf: List[Tuple[int, int, int]] = []
        # sorted-unique key runs, largest first (LSM-style tiers)
        self._runs: List[np.ndarray] = []
        self.events_ingested = 0

    # ------------------------------------------------------------------
    @property
    def num_runs(self) -> int:
        """Current number of sorted runs (O(log(M / chunk)) by design)."""
        return len(self._runs)

    @property
    def num_buffered(self) -> int:
        """Events waiting in the unsorted chunk buffer."""
        return self._buffered + len(self._scalar_buf)

    def add(self, u: int, v: int, t: int) -> None:
        """Ingest one event (range-checked; self-loops dropped at seal)."""
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError(f"event endpoints ({u}, {v}) out of range")
        if not 0 <= t < self.num_timesteps:
            raise ValueError(
                f"timestep {t} out of range 0..{self.num_timesteps - 1}"
            )
        self._scalar_buf.append((int(u), int(v), int(t)))
        self.events_ingested += 1
        if len(self._scalar_buf) >= min(self.chunk_events, 4096):
            self._flush_scalars()
            if self._buffered >= self.chunk_events:
                self._seal_chunk()

    def extend(self, src, dst, t) -> None:
        """Ingest a batch of parallel ``(src, dst, t)`` columns.

        The batch is validated vectorized, then absorbed in
        chunk-sized slices — a batch larger than the chunk never
        inflates the working set.
        """
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        t = np.asarray(t, dtype=np.int64).reshape(-1)
        if not (src.size == dst.size == t.size):
            raise ValueError(
                f"column lengths differ: {src.size}/{dst.size}/{t.size}"
            )
        if src.size == 0:
            return
        if (
            min(src.min(), dst.min()) < 0
            or max(src.max(), dst.max()) >= self.num_nodes
        ):
            raise ValueError("event endpoints out of range")
        if t.min() < 0 or t.max() >= self.num_timesteps:
            raise ValueError(
                f"timesteps out of range 0..{self.num_timesteps - 1}"
            )
        self._flush_scalars()
        if self._buffered >= self.chunk_events:
            self._seal_chunk()
        pos = 0
        while pos < src.size:
            take = min(self.chunk_events - self._buffered, src.size - pos)
            self._buf.append(
                (src[pos:pos + take], dst[pos:pos + take], t[pos:pos + take])
            )
            self._buffered += take
            self.events_ingested += take
            pos += take
            if self._buffered >= self.chunk_events:
                self._seal_chunk()

    # ------------------------------------------------------------------
    def _flush_scalars(self) -> None:
        if not self._scalar_buf:
            return
        arr = np.asarray(self._scalar_buf, dtype=np.int64).reshape(-1, 3)
        self._scalar_buf.clear()
        self._buf.append((arr[:, 0], arr[:, 1], arr[:, 2]))
        self._buffered += arr.shape[0]

    def _seal_chunk(self) -> None:
        """Canonicalize the buffered chunk and fold it into the tiers."""
        if not self._buf:
            return
        fault_injector.fire("ingest.seal", key=self.events_ingested)
        src = np.concatenate([b[0] for b in self._buf])
        dst = np.concatenate([b[1] for b in self._buf])
        t = np.concatenate([b[2] for b in self._buf])
        self._buf.clear()
        self._buffered = 0
        keys = _canonical_keys(src, dst, t, self.num_nodes)
        if not keys.size:
            return
        self._runs.append(keys)
        # tiered compaction: merge neighbours while the run above is
        # not at least twice this run's size (amortized O(M log(M/C)))
        while (
            len(self._runs) >= 2
            and self._runs[-2].size < 2 * self._runs[-1].size
        ):
            self._runs[-2:] = [dedup_keys(np.concatenate(self._runs[-2:]))]

    # ------------------------------------------------------------------
    def build(
        self, attributes: Optional[np.ndarray] = None
    ) -> TemporalEdgeStore:
        """Compact all runs and return the canonical store.

        ``attributes`` is an optional ``(T, N, F)`` block attached
        verbatim (validated by the store).  The builder stays usable:
        the compacted columns become its single run, and further
        ingestion merges against them.
        """
        self._flush_scalars()
        self._seal_chunk()
        if len(self._runs) > 1:
            self._runs = [dedup_keys(np.concatenate(self._runs))]
        keys = self._runs[0] if self._runs else np.zeros(0, dtype=np.int64)
        src, dst, t = _unpack_keys(keys, self.num_nodes)
        return TemporalEdgeStore(
            self.num_nodes,
            self.num_timesteps,
            src,
            dst,
            t,
            attributes,
            validate=attributes is not None,
            canonical=True,
        )

    # ------------------------------------------------------------------
    # crash safety: checkpoint / resume (docs/reliability.md)
    # ------------------------------------------------------------------
    def checkpoint(self, path) -> None:
        """Atomically persist the builder's state to ``path``.

        The buffered chunk is sealed first (canonicalize + merge are
        deterministic and partition-invariant, so sealing early never
        changes the final store), then the runs (unpacked to columns),
        the universe and the ``events_ingested`` counter are written to
        a single ``.npz`` through a temp file + ``os.replace`` — a
        crash during ``checkpoint`` leaves the previous checkpoint
        intact.  A SHA-256 over the payload is stored alongside and
        verified by :meth:`from_checkpoint`.

        ``events_ingested`` is the resume cursor: a restarted ingestion
        replays the same event stream and skips that many events, so
        checkpointing only helps producers that can replay
        deterministically from an offset (logs, files, generators
        re-run with the same seed).
        """
        self._flush_scalars()
        self._seal_chunk()
        runs = [_unpack_keys(keys, self.num_nodes) for keys in self._runs]
        payload = {
            "__checkpoint__": np.array(_CHECKPOINT_MAGIC),
            "version": np.array(_CHECKPOINT_VERSION),
            "num_nodes": np.array(self.num_nodes),
            "num_timesteps": np.array(self.num_timesteps),
            "chunk_events": np.array(self.chunk_events),
            "events_ingested": np.array(self.events_ingested),
            "num_runs": np.array(len(self._runs)),
            "checksum": np.array(
                _checkpoint_digest(
                    self.num_nodes,
                    self.num_timesteps,
                    self.chunk_events,
                    self.events_ingested,
                    runs,
                )
            ),
        }
        for i, (src, dst, t) in enumerate(runs):
            payload[f"run{i}_src"] = src
            payload[f"run{i}_dst"] = dst
            payload[f"run{i}_t"] = t
        final = os.fspath(path)
        tmp = final + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def from_checkpoint(cls, path) -> "StreamingStoreBuilder":
        """Rebuild a builder from a :meth:`checkpoint` file.

        Raises :class:`~repro.reliability.CheckpointError` for
        anything unreadable — foreign files, unsupported versions,
        truncated archives, checksum mismatches — naming ``path`` and
        the failure mode.  ``FileNotFoundError`` passes through.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                if "__checkpoint__" not in data.files or (
                    str(data["__checkpoint__"][()]) != _CHECKPOINT_MAGIC
                ):
                    raise CheckpointError(
                        f"{path} is not an ingestion checkpoint "
                        "(no checkpoint marker)"
                    )
                version = int(data["version"])
                if version != _CHECKPOINT_VERSION:
                    raise CheckpointError(
                        f"{path}: unsupported checkpoint version {version} "
                        f"(this build reads version {_CHECKPOINT_VERSION})"
                    )
                builder = cls(
                    int(data["num_nodes"]),
                    int(data["num_timesteps"]),
                    chunk_events=int(data["chunk_events"]),
                )
                runs = [
                    (
                        data[f"run{i}_src"],
                        data[f"run{i}_dst"],
                        data[f"run{i}_t"],
                    )
                    for i in range(int(data["num_runs"]))
                ]
                stored = str(data["checksum"][()])
                events_ingested = int(data["events_ingested"])
        except FileNotFoundError:
            raise
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"{path}: corrupt or truncated checkpoint "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        builder.events_ingested = events_ingested
        actual = _checkpoint_digest(
            builder.num_nodes,
            builder.num_timesteps,
            builder.chunk_events,
            builder.events_ingested,
            runs,
        )
        if actual != stored:
            raise CheckpointError(
                f"{path}: checksum mismatch (stored {stored[:12]}…, "
                f"computed {actual[:12]}…) — the checkpoint is corrupt"
            )
        builder._runs = [_pack_keys(*run, builder.num_nodes) for run in runs]
        return builder


def ingest_stream(
    events,
    num_nodes: int,
    num_timesteps: int,
    *,
    chunk_events: int = 65536,
    memory_budget_bytes: Optional[int] = None,
    attributes: Optional[np.ndarray] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every_events: Optional[int] = None,
) -> TemporalEdgeStore:
    """Fold an integer-timestep event stream into a canonical store.

    The one-call front door to :class:`StreamingStoreBuilder`.
    ``events`` may be:

    * a single ``(src, dst, t)`` triple of parallel arrays — absorbed
      in chunk-sized slices;
    * an iterable of scalar ``(u, v, t)`` event triples;
    * an iterable of ``(src, dst, t)`` array batches (e.g. a generator
      yielding one batch per producer flush).

    Peak transient memory is one chunk's canonicalization working set
    (``_BYTES_PER_EVENT`` = 64 bytes an event, sized directly or via
    ``memory_budget_bytes``) plus up to 2x the canonical columns (24
    bytes an output event): the final unpack holds the 8-byte key run
    beside the three output columns, as a bulk ``TemporalEdgeStore``
    build does (7.08 MB each traced at 240k events, 16k-event chunks).
    The unsorted stream is never resident.

    **Checkpoint/resume** (``docs/reliability.md``): with
    ``checkpoint_path`` set, the builder's state is persisted
    atomically every ``checkpoint_every_events`` ingested events
    (default: every ``chunk_events``).  If the process dies mid-stream,
    re-running the *same call over the same replayed stream* resumes
    from the checkpoint — the first ``events_ingested`` events are
    skipped and the final store is identical to the uninterrupted
    build (canonicalization is partition-invariant).  The checkpoint
    file is deleted once ``build`` succeeds.  The resume contract
    requires a deterministic, replayable producer; mismatched
    ``num_nodes``/``num_timesteps`` raise
    :class:`~repro.reliability.CheckpointError`.
    """
    skip = 0
    builder = None
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        builder = StreamingStoreBuilder.from_checkpoint(checkpoint_path)
        if (
            builder.num_nodes != num_nodes
            or builder.num_timesteps != num_timesteps
        ):
            raise CheckpointError(
                f"{checkpoint_path}: checkpoint universe "
                f"(N={builder.num_nodes}, T={builder.num_timesteps}) does "
                f"not match the requested ingestion "
                f"(N={num_nodes}, T={num_timesteps})"
            )
        skip = builder.events_ingested
    if builder is None:
        builder = StreamingStoreBuilder(
            num_nodes,
            num_timesteps,
            chunk_events=chunk_events,
            memory_budget_bytes=memory_budget_bytes,
        )
    every = (
        int(checkpoint_every_events)
        if checkpoint_every_events is not None
        else builder.chunk_events
    )
    if every < 1:
        raise ValueError("checkpoint_every_events must be >= 1")
    last_checkpoint = builder.events_ingested

    def maybe_checkpoint() -> None:
        nonlocal last_checkpoint
        if (
            checkpoint_path is not None
            and builder.events_ingested - last_checkpoint >= every
        ):
            builder.checkpoint(checkpoint_path)
            last_checkpoint = builder.events_ingested

    def absorb_batch(src, dst, t) -> None:
        """Feed one array batch, honoring the resume skip cursor."""
        nonlocal skip
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        t = np.asarray(t, dtype=np.int64).reshape(-1)
        if skip >= src.size:
            skip -= src.size
            return
        if skip:
            src, dst, t = src[skip:], dst[skip:], t[skip:]
            skip = 0
        builder.extend(src, dst, t)
        maybe_checkpoint()

    if (
        isinstance(events, (tuple, list))
        and len(events) == 3
        and np.ndim(events[0]) >= 1
    ):
        # slice the triple so the checkpoint cadence holds inside it
        src = np.asarray(events[0]).reshape(-1)
        dst = np.asarray(events[1]).reshape(-1)
        t = np.asarray(events[2]).reshape(-1)
        for pos in range(0, max(src.size, 1), every):
            absorb_batch(
                src[pos:pos + every],
                dst[pos:pos + every],
                t[pos:pos + every],
            )
    else:
        for item in events:
            if len(item) != 3:
                raise ValueError(
                    "events must be (src, dst, t) triples or batches"
                )
            if np.ndim(item[0]) == 0:
                if skip:
                    skip -= 1
                    continue
                builder.add(int(item[0]), int(item[1]), int(item[2]))
                maybe_checkpoint()
            else:
                absorb_batch(*item)
    store = builder.build(attributes)
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return store


def snapshot_density_profile(graph: DynamicAttributedGraph) -> np.ndarray:
    """Per-snapshot edge counts, shape ``(T,)``.

    Used to sanity-check a discretization: uniform windows on a bursty
    stream produce a highly skewed profile, equal-count windows a flat
    one.
    """
    return graph.store.edges_per_step().astype(float)
