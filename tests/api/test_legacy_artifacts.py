"""Artifacts saved before the closure autodiff engine was retired still
load and generate bit-identically.

``data/gran_v3_c61ebd7.npz`` and ``data/vrdag_v3_c61ebd7.npz`` are v3
envelopes saved at commit ``c61ebd7``: ``api.get_generator(name,
seed=3, **api.smoke_config(name))`` fitted on the ``tiny_graph``
fixture, then ``api.save_artifact``.  Their configs carry the retired
``engine`` key.  ``data/legacy_artifacts.json`` holds the config each
was saved with and the store digest of ``load_artifact(path)
.generate(3, seed=11)`` at that commit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import api

from tests.conftest import store_digest

DATA = Path(__file__).parent / "data"
RECORDED = json.loads((DATA / "legacy_artifacts.json").read_text())


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_pre_retirement_artifact_loads_and_generates(name):
    entry = RECORDED[name]
    assert entry["config"]["engine"] == "tape"  # the retired key
    generator = api.load_artifact(DATA / entry["file"])
    assert generator.fitted
    assert "engine" not in generator.to_config()
    graph = generator.generate(3, seed=11)
    assert store_digest(graph) == entry["generate_digest"]


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_v3_artifact_resaved_as_v4_generates_the_same(name, tmp_path):
    """load (v3) -> save (v4) -> load keeps the recorded output."""
    entry = RECORDED[name]
    path = tmp_path / entry["file"].replace("v3", "v4")
    api.save_artifact(api.load_artifact(DATA / entry["file"]), path)
    with np.load(path, allow_pickle=False) as data:
        assert int(data["version"]) == api.ARTIFACT_VERSION == 4
        assert not [k for k in data.files if k.startswith("arr::")]
    graph = api.load_artifact(path).generate(3, seed=11)
    assert store_digest(graph) == entry["generate_digest"]
