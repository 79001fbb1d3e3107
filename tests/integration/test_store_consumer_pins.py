"""Pins for the code that reads store columns instead of an edge stream.

The Tables III/IV subsampler and the CSV edge files once went through a
separate ``(u, v, t)`` stream type.  The digests below were recorded
with that type at commit ``507436b``; the store-column code must build
the same stores bit for bit.
"""

from types import SimpleNamespace

import pytest

from repro.datasets import CoEvolutionConfig, generate_co_evolving_graph
from repro.datasets import load_dataset
from repro.eval import experiments
from repro.graph.formats import export_graph_csv, import_graph_csv

from tests.conftest import store_digest

SWEEP_DIGESTS = [
    "3bfddbbb9f01b0b23c9dea4e6307f1da379b6b63fbd8577d45bff4d93100e223",
    "b3e9c251b16623451fdfc48929ff92caa14b709d212454436d08c9b7bb57c47d",
    "cf0298949ec89e0e1cf0a3b2af91c8db1ad778a0e0fa23965b15ba49dc0b3550",
]

CSV_DIGESTS = {
    "email": "73ec46b557c9c597e30272d2d85925087f4ea69ed49103e7f42c430f684b9eb4",
    "structure-only": (
        "72dcb0941809a8cb4148fb07d1754ec5e047db9681275f4a8150ea77c4511528"
    ),
}


def _sweep_digests(monkeypatch, edge_counts):
    """Store digests of the subgraphs the sweep hands to each fit."""
    seen = []

    def record(name, generator, graph, **kwargs):
        seen.append(store_digest(graph))
        return SimpleNamespace(fit_seconds=0.0, generate_seconds=0.0)

    monkeypatch.setattr(experiments, "timed_fit_generate", record)
    experiments.run_scalability_sweep(
        edge_counts=edge_counts, methods=["TagGen"],
        dataset="gdelt", scale=0.04, seed=0,
    )
    return seen


def test_scalability_sweep_subsamples(monkeypatch):
    """gdelt twin, scale 0.04, seed 0: one rng draws all three subsets."""
    assert _sweep_digests(monkeypatch, (200, 1000, 4000)) == SWEEP_DIGESTS


def test_sweep_keeps_small_stores_whole_without_a_draw(monkeypatch):
    """A count above the edge count keeps every edge and leaves the rng
    alone, so the next count draws the same subset as a fresh sweep."""
    whole = store_digest(load_dataset("gdelt", scale=0.04, seed=0))
    got = _sweep_digests(monkeypatch, (10**9, 200))
    assert got == [whole, SWEEP_DIGESTS[0]]


def _csv_graph(name):
    if name == "email":
        return load_dataset("email", scale=0.02, seed=0)
    return generate_co_evolving_graph(CoEvolutionConfig(
        num_nodes=14, num_timesteps=3, num_attributes=0,
        edges_per_step=25, num_communities=2,
    ), seed=5)


@pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
def test_csv_export_import(tmp_path, name):
    graph = _csv_graph(name)
    edge_path, attr_path = tmp_path / "e.csv", tmp_path / "a.csv"
    export_graph_csv(graph, edge_path, attr_path)
    back = import_graph_csv(
        edge_path, attr_path if graph.num_attributes else None,
        num_nodes=graph.num_nodes, num_timesteps=graph.num_timesteps,
    )
    assert store_digest(graph) == store_digest(back) == CSV_DIGESTS[name]
