"""Dynamic attributed graph data model (paper §II-A).

A dynamic attributed graph is a sequence of snapshots
``G_t(A_t, X_t)`` over a fixed node universe ``V`` of size ``N``.
Canonically it is stored *columnar*:

* :class:`TemporalEdgeStore` — the canonical representation: shared
  ``(src, dst, t)`` int columns sorted by ``(t, src, dst)``,
  per-timestep offsets, one ``(T, N, F)`` attribute block.  O(M + N·F·T)
  memory instead of O(N²·T).  The random-walk baselines, the CSV edge
  files and the scalability subsampler read its columns directly.
* :class:`GraphSnapshot` — one timestep: a cheap ``(store, t)`` view.
  ``adjacency`` is a lazily-materialized, cached, read-only dense
  view; ``GraphSnapshot(adjacency, attributes)`` converts outside
  dense input to a one-step store.
* :class:`DynamicAttributedGraph` — the sequence, with statistics and
  validation; always wraps one store.
* :mod:`repro.graph.properties` — structural analytics (degrees,
  clustering, coreness, wedges, components, power-law exponents), all
  running on the CSR view.
* :mod:`repro.graph.streams` — continuous-time interaction streams
  (``src``/``dst``/``time`` columns), discretization policies that
  return one bucket id per event, and bounded-memory ingestion.
* :mod:`repro.graph.live` — live ingestion with epoch-consistent
  near-zero-copy snapshots (query while ingesting).
* :mod:`repro.graph.io` — portable ``.npz`` persistence (columnar).
* :mod:`repro.graph.formats` — CSV interop (store edge columns,
  interaction-stream columns, attribute tables) for dataset exchange;
  readers name the offending ``path:line``.
"""

from repro.graph.snapshot import GraphSnapshot
from repro.graph.store import (
    TemporalEdgeStore,
    TemporalEdgeStoreBuilder,
    track_dense_materializations,
)
from repro.graph.dynamic import DynamicAttributedGraph
from repro.graph.streams import InteractionStream
from repro.graph.live import LiveStoreBuilder
from repro.graph import properties, io, live, store, streams, formats

__all__ = [
    "GraphSnapshot",
    "DynamicAttributedGraph",
    "TemporalEdgeStore",
    "TemporalEdgeStoreBuilder",
    "InteractionStream",
    "LiveStoreBuilder",
    "track_dense_materializations",
    "properties",
    "io",
    "live",
    "store",
    "streams",
    "formats",
]
