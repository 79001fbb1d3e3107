"""The ``pairwise_mixbern_loglik`` record is pinned bit for bit across
its row blocks.

``data/pairwise_record_pins.json`` was recorded at commit ``8c5471a``,
where every row block of the record allocated its own temporaries, by
running :func:`case_digests` over :data:`CASES` with the real
``_PAIR_BUDGET`` (1024 pairs).  N=97 runs ten 10-row blocks plus a
7-row tail, so a block buffer that leaks values from one block into
the next, or a tail that reads past its rows, changes a digest; N=1 is
one block of one pair, all of it diagonal.  The fit pins use N=10 (one
block) and cannot see either.

Each case pins the forward output and every VJP gradient for one
activation, component count and bias layout.  Some θ land in the
clipped band (``|logit| > 16``), so the clip mask of the VJP is
exercised, and the bias-free cases put every diagonal preactivation on
the activation kink.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.autodiff import fused
from repro.autodiff.fused import FUSED_ACTIVATIONS
from repro.autodiff.ops import get_op

PINS = json.loads(
    (Path(__file__).parent / "data" / "pairwise_record_pins.json").read_text()
)

EPS = 1e-7
D, H = 7, 36

CASES = [
    (n, act, k, bias)
    for n in (97, 1)
    for act in FUSED_ACTIVATIONS
    for k in (1, 3)
    for bias in (True, False)
]


def case_id(case) -> str:
    n, act, k, bias = case
    return f"n{n}-{act}-k{k}-{'bias' if bias else 'nobias'}"


def _sha(arr) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{a.dtype}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def case_inputs(case):
    """``(arrays, g, kwargs)`` of one case, seeded by its position."""
    n, act, k, bias = case
    rng = np.random.default_rng(CASES.index(case))
    s = rng.normal(size=(n, D))
    w1 = rng.normal(size=(D, H)) * 0.4
    b1 = rng.normal(size=H) * 0.5
    w2 = rng.normal(size=(H, k)) * 0.9
    b2 = rng.normal(size=k) - 1.0
    adjacency = (rng.random((n, n)) < 0.3).astype(np.float64)
    np.fill_diagonal(adjacency, 0.0)
    g = rng.normal(size=(n, k))
    arrays = (s, w1, b1, w2, b2) if bias else (s, w1, w2)
    kwargs = dict(
        adjacency=adjacency, eps=EPS, activation=act,
        has_b1=bias, has_b2=bias,
    )
    return arrays, g, kwargs


def case_digests(case) -> dict:
    """sha256 of the forward output and of each VJP gradient."""
    arrays, g, kwargs = case_inputs(case)
    spec = get_op("pairwise_mixbern_loglik")
    out, res = spec.forward(*arrays, **kwargs)
    grads = spec.vjp(g, arrays, res, **kwargs)
    return {"forward": _sha(out), "grads": [_sha(gr) for gr in grads]}


def test_pins_cover_the_cases():
    assert fused._PAIR_BUDGET == 1024
    assert sorted(PINS) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_record_matches_parent_digests(case):
    assert case_digests(case) == PINS[case_id(case)]


def test_cases_reach_the_clip_and_several_blocks():
    arrays, _, kwargs = case_inputs((97, "leaky_relu", 3, True))
    s, w1, b1, w2, b2 = arrays
    pre = (s @ w1 + b1)[:, None, :] - (s @ w1)[None, :, :]
    logits = np.maximum(pre, 0.2 * pre) @ w2 + b2
    assert (np.abs(logits) > 16.2).any()            # θ clipped somewhere
    assert 97 % max(fused._PAIR_BUDGET // 97, 1)    # a short tail block


def test_interleaved_calls_keep_their_own_scratch():
    """Two ``_theta_blocks`` calls advanced in lockstep (as two
    thread-executor shards may be) yield what each yields alone: the
    block scratch belongs to the call, not to the module."""
    def blocks(case):
        arrays, _, kwargs = case_inputs(case)
        s, w1, b1, w2, b2 = arrays
        proj = s @ w1
        return fused._theta_blocks(
            proj, proj + b1, w2, b2, kwargs["activation"], 0.2
        )

    cases = [(97, "leaky_relu", 3, True), (97, "tanh", 3, True)]
    solo = [
        [tuple(a.copy() for a in blk[2:]) for blk in blocks(c)]
        for c in cases
    ]
    for i, pair in enumerate(zip(*(blocks(c) for c in cases))):
        for j, blk in enumerate(pair):
            for got, want in zip(blk[2:], solo[j][i]):
                np.testing.assert_array_equal(got, want)
