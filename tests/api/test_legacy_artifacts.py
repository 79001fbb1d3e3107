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
