"""Every graph producer's output is pinned bit for bit.

``data/producer_pins.json`` was recorded at commit ``810f2ff``, where
the dataset twins, the dense baselines, the ``perturb`` operators,
``NodeDynamicsWrapper.generate`` and the encoder's dense rollouts built
their graphs from per-step dense ``GraphSnapshot(adjacency)`` steps.
They now emit edge columns into a ``TemporalEdgeStoreBuilder`` (or
rewrite only a store's attribute block), so each pin checks that the
columnar path consumes its RNG and orders its edges exactly as the
dense one did.  Rerun :func:`producer_digests` to see the current
values.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.core import NodeDynamicsWrapper, TrainConfig, VRDAG, VRDAGConfig
from repro.core import VRDAGTrainer
from repro.datasets import (
    CoEvolutionConfig,
    DATASET_PROFILES,
    generate_co_evolving_graph,
    load_dataset,
    perturb,
)

from tests.conftest import store_digest

PINS = json.loads(
    (Path(__file__).parent / "data" / "producer_pins.json").read_text()
)

TWIN_SEEDS = (0, 1)
TWIN_SCALE = 0.02


def _graph(num_attributes: int):
    """The ``tiny_graph`` (F=2) and ``structure_only_graph`` (F=0) twins."""
    if num_attributes:
        cfg = CoEvolutionConfig(
            num_nodes=16, num_timesteps=4, num_attributes=2,
            edges_per_step=30, num_communities=3,
        )
        return generate_co_evolving_graph(cfg, seed=42)
    cfg = CoEvolutionConfig(
        num_nodes=14, num_timesteps=3, num_attributes=0,
        edges_per_step=25, num_communities=2,
    )
    return generate_co_evolving_graph(cfg, seed=5)


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def twin_digests() -> dict:
    return {
        f"{name}/seed={seed}": store_digest(
            load_dataset(name, scale=TWIN_SCALE, seed=seed)
        )
        for name in sorted(DATASET_PROFILES)
        for seed in TWIN_SEEDS
    }


def generator_digests() -> dict:
    out = {}
    for f in (2, 0):
        graph = _graph(f)
        for name in api.list_generators():
            gen = api.get_generator(name, seed=1, **api.smoke_config(name))
            gen.fit(graph)
            out[f"{name}/F={f}"] = store_digest(
                gen.generate(graph.num_timesteps, seed=5)
            )
    return out


def perturb_digests() -> dict:
    ops = {
        "rewire_edges": lambda g, r: perturb.rewire_edges(g, 0.3, r),
        "drop_edges": lambda g, r: perturb.drop_edges(g, 0.3, r),
        "add_random_edges": lambda g, r: perturb.add_random_edges(g, 5, r),
        "attribute_noise": lambda g, r: perturb.attribute_noise(g, 0.1, r),
        "shuffle_attribute_rows": perturb.shuffle_attribute_rows,
        "shuffle_snapshots": perturb.shuffle_snapshots,
        "freeze_first_snapshot": lambda g, r: perturb.freeze_first_snapshot(g),
    }
    return {
        f"{name}/F={f}": store_digest(op(_graph(f), np.random.default_rng(0)))
        for f in (2, 0)
        for name, op in ops.items()
    }


def model_digests() -> dict:
    """The node-churn rollout and the marginal-Ã rollout of one model."""
    graph = _graph(2)
    cfg = VRDAGConfig(
        num_nodes=graph.num_nodes, num_attributes=graph.num_attributes,
        hidden_dim=8, latent_dim=4, encode_dim=8, seed=3,
    )
    model = VRDAG(cfg)
    VRDAGTrainer(model, TrainConfig(epochs=2)).fit(graph)
    wrapper = NodeDynamicsWrapper(model, deletion_threshold=1).fit(graph)
    churn, masks = wrapper.generate(5, initial_active=10, seed=3)
    return {
        "NodeDynamicsWrapper.generate": store_digest(churn),
        "NodeDynamicsWrapper.masks": _array_digest(masks),
        "VRDAG.expected_adjacency": _array_digest(
            model.expected_adjacency(3, seed=2)
        ),
    }


def producer_digests() -> dict:
    return {
        "twins": twin_digests(),
        "generators": generator_digests(),
        "perturb": perturb_digests(),
        "model": model_digests(),
    }


@pytest.fixture(scope="module")
def twins():
    return twin_digests()


@pytest.fixture(scope="module")
def generators():
    return generator_digests()


@pytest.fixture(scope="module")
def perturbations():
    return perturb_digests()


@pytest.fixture(scope="module")
def models():
    return model_digests()


def test_pins_cover_every_twin_generator_and_operator(
    twins, generators, perturbations, models
):
    assert sorted(PINS["twins"]) == sorted(twins)
    assert sorted(PINS["generators"]) == sorted(generators)
    assert sorted(PINS["perturb"]) == sorted(perturbations)
    assert sorted(PINS["model"]) == sorted(models)


@pytest.mark.parametrize("key", sorted(PINS["twins"]))
def test_twin_matches_recorded_digest(twins, key):
    assert twins[key] == PINS["twins"][key]


@pytest.mark.parametrize("key", sorted(PINS["generators"]))
def test_generator_matches_recorded_digest(generators, key):
    assert generators[key] == PINS["generators"][key]


@pytest.mark.parametrize("key", sorted(PINS["perturb"]))
def test_perturbation_matches_recorded_digest(perturbations, key):
    assert perturbations[key] == PINS["perturb"][key]


@pytest.mark.parametrize("key", sorted(PINS["model"]))
def test_model_rollout_matches_recorded_digest(models, key):
    assert models[key] == PINS["model"][key]
