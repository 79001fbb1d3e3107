"""Perturbation toolkit for robustness evaluation and failure injection.

Generator quality metrics are only trustworthy if they respond sanely
to controlled corruption: a metric that cannot tell the original graph
from a 30%-rewired copy is useless for ranking generators.  This module
provides the controlled-corruption operators used by the robustness
tests and ablation analyses:

* :func:`rewire_edges` — replace a fraction of each snapshot's edges
  with random ones (degree-free noise).
* :func:`drop_edges` / :func:`add_random_edges` — sparsify / densify.
* :func:`attribute_noise` — additive Gaussian noise on attributes.
* :func:`shuffle_attribute_rows` — break attribute/topology coupling
  while keeping both marginals intact (the targeted negative control
  for coupling metrics).
* :func:`shuffle_snapshots` — destroy temporal ordering while keeping
  every snapshot intact (negative control for difference metrics).
* :func:`freeze_first_snapshot` — replace the sequence by T copies of
  snapshot 0 (the "static generator" caricature).

All operators are pure: they return a new graph and never mutate the
input (the attribute-only ones share its immutable edge columns).
Structural ones edit one dense working copy per step and emit its
nonzeros as the new step's columns.  Each takes an ``np.random.Generator`` so corruption levels are
reproducible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder


def _check_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")


def _edit_structure(
    graph: DynamicAttributedGraph,
    edit: Callable[[np.ndarray, np.ndarray], None],
) -> DynamicAttributedGraph:
    """Apply ``edit(adj, edges)`` to a dense working copy of every step.

    ``edges`` is the step's ``(E, 2)`` edge array in canonical order;
    ``edit`` mutates the 0/1, loop-free ``adj`` in place, so its
    nonzeros are the new step's canonical columns.  Attributes are kept.
    """
    n = graph.num_nodes
    builder = TemporalEdgeStoreBuilder(n, graph.num_attributes)
    adj = np.zeros((n, n))
    for snap in graph:
        edges = snap.edge_array()
        adj[:] = 0.0
        adj[edges[:, 0], edges[:, 1]] = 1.0
        edit(adj, edges)
        builder.add_step(*np.nonzero(adj), snap.attributes, canonical=True)
    return builder.build().to_graph()


def _drop(
    adj: np.ndarray,
    edges: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
) -> int:
    """Remove ``fraction`` of ``edges`` from ``adj``; returns the count."""
    k = int(round(fraction * len(edges)))
    if k:
        picked = edges[rng.choice(len(edges), size=k, replace=False)]
        adj[picked[:, 0], picked[:, 1]] = 0.0
    return k


def rewire_edges(
    graph: DynamicAttributedGraph,
    fraction: float,
    rng: np.random.Generator,
) -> DynamicAttributedGraph:
    """Replace ``fraction`` of each snapshot's edges with random pairs.

    Edge counts are preserved per snapshot (up to collisions with
    existing edges, which are skipped).
    """
    _check_fraction(fraction)
    n = graph.num_nodes

    def rewire(adj: np.ndarray, edges: np.ndarray) -> None:
        k = _drop(adj, edges, fraction, rng)
        placed = 0
        while placed < k:
            u, v = rng.integers(0, n, size=2)
            if u != v and adj[u, v] == 0:
                adj[u, v] = 1.0
                placed += 1

    return _edit_structure(graph, rewire)


def drop_edges(
    graph: DynamicAttributedGraph,
    fraction: float,
    rng: np.random.Generator,
) -> DynamicAttributedGraph:
    """Remove ``fraction`` of each snapshot's edges uniformly."""
    _check_fraction(fraction)
    return _edit_structure(
        graph, lambda adj, edges: _drop(adj, edges, fraction, rng)
    )


def add_random_edges(
    graph: DynamicAttributedGraph,
    count_per_step: int,
    rng: np.random.Generator,
) -> DynamicAttributedGraph:
    """Insert up to ``count_per_step`` new random edges per snapshot."""
    if count_per_step < 0:
        raise ValueError("count_per_step must be >= 0")
    n = graph.num_nodes

    def add(adj: np.ndarray, edges: np.ndarray) -> None:
        budget = count_per_step
        attempts = 0
        while budget > 0 and attempts < 20 * count_per_step + 20:
            u, v = rng.integers(0, n, size=2)
            attempts += 1
            if u != v and adj[u, v] == 0:
                adj[u, v] = 1.0
                budget -= 1

    return _edit_structure(graph, add)


def attribute_noise(
    graph: DynamicAttributedGraph,
    sigma: float,
    rng: np.random.Generator,
) -> DynamicAttributedGraph:
    """Add i.i.d. ``N(0, sigma^2)`` noise to every attribute entry."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    attrs = graph.attribute_tensor()
    noisy = attrs + rng.normal(0.0, sigma, size=attrs.shape)
    return graph.store.with_attributes(noisy).to_graph()


def shuffle_attribute_rows(
    graph: DynamicAttributedGraph,
    rng: np.random.Generator,
) -> DynamicAttributedGraph:
    """Permute node identities of attributes (same permutation per step).

    Structure and attribute marginals are both unchanged; only the
    *alignment* between a node's position in the topology and its
    attribute vector is destroyed — the negative control for
    attribute/structure coupling metrics.
    """
    perm = rng.permutation(graph.num_nodes)
    return graph.store.with_attributes(
        graph.attribute_tensor()[:, perm]
    ).to_graph()


def _reorder_steps(
    graph: DynamicAttributedGraph, order
) -> DynamicAttributedGraph:
    """The steps of ``graph`` in ``order`` (repeats allowed), copied."""
    store = graph.store
    builder = TemporalEdgeStoreBuilder(store.num_nodes, store.num_attributes)
    for t in order:
        builder.add_step(
            *store.edges_at(int(t)), store.attributes[t], canonical=True
        )
    return builder.build().to_graph()


def shuffle_snapshots(
    graph: DynamicAttributedGraph,
    rng: np.random.Generator,
) -> DynamicAttributedGraph:
    """Randomly reorder the sequence (keeps each snapshot intact)."""
    return _reorder_steps(graph, rng.permutation(graph.num_timesteps))


def freeze_first_snapshot(graph: DynamicAttributedGraph) -> DynamicAttributedGraph:
    """T copies of snapshot 0 — the degenerate "static" sequence."""
    return _reorder_steps(graph, [0] * graph.num_timesteps)
