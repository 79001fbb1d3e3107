"""``continue_sequence`` output is pinned bit for bit.

``data/vrdag_continuation_pins.json`` was recorded at commit
``8136f98``, where ``continue_sequence`` ran its own copy of the
Algorithm-1 step loop and returned dense snapshots.  It now runs
``VRDAG._rollout``, the step loop ``generate`` uses, and returns a
store-backed graph.  Each case is ``(prefix length, horizon, seed)``;
the last one passes ``seed=None`` (the ``cfg.seed + 777`` default) and
runs past the fitted horizon, so the calibration rows clamp.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import TrainConfig, VRDAG, VRDAGConfig, VRDAGTrainer
from repro.core.continuation import continue_sequence
from repro.datasets import load_dataset

PINS = json.loads(
    (Path(__file__).parent / "data" / "vrdag_continuation_pins.json").read_text()
)

CASES = [(3, 4, 0), (7, 5, 11), (10, 6, None)]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def continuation_digests(graph) -> dict:
    """Edge-column and attribute digests of a generated continuation."""
    store = graph.store
    edges = [
        np.asarray(col, dtype=np.int64)
        for col in (store.src, store.dst, store.t, store.offsets)
    ]
    return {
        "edges": _sha(*edges),
        "attributes": _sha(np.asarray(store.attributes, dtype=np.float64)),
    }


@pytest.fixture(scope="module")
def fitted():
    graph = load_dataset("email", scale=0.05, seed=0)
    cfg = VRDAGConfig(
        num_nodes=graph.num_nodes, num_attributes=graph.num_attributes,
        hidden_dim=24, latent_dim=12, encode_dim=24, seed=3,
    )
    model = VRDAG(cfg)
    VRDAGTrainer(model, TrainConfig(epochs=1)).fit(graph)
    return model, graph


def test_pins_cover_every_case():
    assert [pin["case"] for pin in PINS["continuations"]] == [
        list(case) for case in CASES
    ]


@pytest.mark.parametrize("prefix_len,horizon,seed", CASES)
def test_continuation_matches_recorded_digests(fitted, prefix_len, horizon, seed):
    model, graph = fitted
    (pin,) = [
        p for p in PINS["continuations"]
        if p["case"] == [prefix_len, horizon, seed]
    ]
    future = continue_sequence(
        model, graph.truncated(prefix_len), horizon, seed=seed
    )
    assert future.num_timesteps == horizon
    assert continuation_digests(future) == pin["digests"]
