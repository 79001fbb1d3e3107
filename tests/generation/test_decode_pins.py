"""The no-grad MixBernoulli decode is pinned bit for bit across its row
blocks.

``data/decode_pins.json`` was recorded at commit ``8c5471a``, where
every row block of the decode allocated its own temporaries, by running
:func:`head_digests` for each head of :data:`HEADS`.  N=97 decodes in
``_decode_block_rows(97)`` = 10-row blocks; the shard range
``[3, 61)`` starts and ends inside a block, so its first and last
blocks are short and differ from the monolithic decode's.  The heads
cover the fused decode's paths: a 2-layer leaky head, a relu head, a
3-layer tanh head (a middle layer) and a bias-free head.

Each head also pins the full-range decode on one shared stream (what
``MixBernoulliSampler.sample_edges`` runs) and ``edge_probabilities``
with that head as θ; the tanh head is also the α head there, so the
blocked α pass (no closed form for tanh) is pinned too.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.generator import (
    MixBernoulliSampler,
    _decode_block_rows,
    _first_layer_projection,
    sample_rows,
)
from repro.nn import MLP

PINS = json.loads(
    (Path(__file__).parent / "data" / "decode_pins.json").read_text()
)

N, D, LO, HI = 97, 6, 3, 61

#: name -> (layer sizes after the input, hidden activation, bias)
HEADS = {
    "leaky2": ((36, 3), "leaky_relu", True),
    "relu": ((24, 1), "relu", True),
    "tanh3": ((20, 12, 3), "tanh", True),
    "nobias": ((16, 2), "leaky_relu", False),
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _head(name, seed):
    sizes, act, bias = HEADS[name]
    return MLP(
        (D,) + sizes, activation=act, bias=bias,
        rng=np.random.default_rng(seed),
    )


def head_digests(name) -> dict:
    """Digests of a shard-range decode, a full-range decode and the
    marginal edge probabilities, all under head ``name``."""
    seed = sorted(HEADS).index(name)
    rng = np.random.default_rng(100 + seed)
    s = rng.normal(size=(N, D))
    head = _head(name, seed)
    k = head.layers[-1].weight.data.shape[1]
    alpha = rng.random((N, k)) + 0.1
    alpha /= alpha.sum(axis=1, keepdims=True)
    proj = _first_layer_projection(head, s)
    block = _decode_block_rows(N)
    shard = sample_rows(
        head, proj, alpha[LO:HI], LO, HI, block,
        np.random.default_rng(seed), np.random.default_rng(50 + seed),
    )
    shared = np.random.default_rng(seed)
    full = sample_rows(head, proj, alpha, 0, N, block, shared, shared)

    sampler = MixBernoulliSampler(D, num_components=k, rng=rng)
    sampler.f_theta = head
    if name == "tanh3":
        sampler.f_alpha = _head(name, seed + 7)
    return {
        "shard": _sha(*shard),
        "full": _sha(*full),
        "edge_probabilities": _sha(sampler.edge_probabilities(s)),
    }


def test_shard_range_is_off_the_block_grid():
    block = _decode_block_rows(N)
    assert block == 10 and LO % block and HI % block and N % block


@pytest.mark.parametrize("name", sorted(HEADS))
def test_decode_matches_parent_digests(name):
    assert head_digests(name) == PINS[name]
