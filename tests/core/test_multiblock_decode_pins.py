"""A multi-block decode is bit-identical to the whole-matrix decode it
replaced.

``data/vrdag_multiblock_pins.json`` was recorded at commit ``8f8ef5d``
by running :func:`_fitted_model` and ``model.generate(14, seed=s)`` for
``s`` in 0, 1, 2, hashing each generated store with
:func:`store_digest`.  There the decode sized its row blocks as
``32768 // N`` pairs, so at the email twin's N=95 each step decoded in
one 95-row block.  The decode now shares the training record's
1024-pair budget (``repro.autodiff.fused._PAIR_BUDGET``): 10-row
blocks, ten per step, with the component picked before the sigmoid.
The pins in ``vrdag_parent_pins.json`` use N=10, one block either way,
so they cannot see a block-height change; these can.
"""

import json
from pathlib import Path

from repro.core import TrainConfig, VRDAG, VRDAGConfig, VRDAGTrainer
from repro.core.generator import _decode_block_rows
from repro.datasets import load_dataset

from tests.conftest import store_digest

PINS = json.loads(
    (Path(__file__).parent / "data" / "vrdag_multiblock_pins.json").read_text()
)


def _fitted_model() -> VRDAG:
    graph = load_dataset("email", scale=0.05, seed=0)
    cfg = VRDAGConfig(
        num_nodes=graph.num_nodes, num_attributes=graph.num_attributes,
        hidden_dim=24, latent_dim=12, encode_dim=24, seed=3,
    )
    model = VRDAG(cfg)
    VRDAGTrainer(model, TrainConfig(epochs=1)).fit(graph)
    return model


def test_multiblock_generate_matches_parent_digests():
    model = _fitted_model()
    n = model.config.num_nodes
    assert n == 95 and _decode_block_rows(n) < n  # several blocks a step
    for seed, digest in PINS["generate_digests"].items():
        assert store_digest(model.generate(14, seed=int(seed))) == digest
