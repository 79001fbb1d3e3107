"""Memory pin: the tape structure likelihood keeps O(N·h) state.

After one tape ``MixBernoulliSampler.log_likelihood`` the bytes the
tape holds for its records — residuals plus output values — must stay
below ``c·N·h·8``: a single surviving ``(N, N, ·)`` array (the pairwise
hidden layer is ``N²·h·8`` bytes) overshoots the bound N/c-fold.

The total bound has room for a leaked block-sized scratch buffer (at
N=256, h=16 a 1024-pair ``(pairs, h)`` buffer is 131 KB under a 327 KB
bound), so each residual array of the ``pairwise_mixbern_loglik``
record is also held to ``N·h·8`` bytes: its residuals are the
``(N, h)`` projections, never a row block's scratch.
"""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor
from repro.core.generator import MixBernoulliSampler

#: the bound's constant: the records keep ~5 (N, h)-sized arrays plus
#: ~10 (N, K) ones (~7 N·h·8 bytes at h=16, K=3)
STATE_FACTOR = 10


def _arrays(obj):
    """Every ndarray in a record's (possibly nested) residuals."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _arrays(x)


def _nbytes(obj) -> int:
    return sum(arr.nbytes for arr in _arrays(obj))


@pytest.mark.perf
def test_log_likelihood_tape_state_is_linear_in_n():
    n, h = 256, 16
    rng = np.random.default_rng(0)
    sampler = MixBernoulliSampler(h, num_components=3, rng=rng)
    adj = (rng.random((n, n)) < 0.05).astype(float)
    np.fill_diagonal(adj, 0.0)
    with Tape() as tape:
        sampler.log_likelihood(Tensor(rng.normal(size=(n, h))), adj)
    held = sum(
        _nbytes(rec.residuals) + tape._values[rec.out_id].nbytes
        for rec in tape.records
    )
    assert held < STATE_FACTOR * n * h * 8, (
        f"{len(tape.records)} records hold {held} bytes"
    )
    theta = [
        rec for rec in tape.records
        if rec.spec.name == "pairwise_mixbern_loglik"
    ]
    assert len(theta) == 1
    residual_bytes = [arr.nbytes for arr in _arrays(theta[0].residuals)]
    assert residual_bytes and max(residual_bytes) <= n * h * 8, residual_bytes
