"""Memory pin: the tape structure likelihood keeps O(N·h) state.

After one tape ``MixBernoulliSampler.log_likelihood`` the bytes the
tape holds for its records — residuals plus output values — must stay
below ``c·N·h·8``: a single surviving ``(N, N, ·)`` array (the pairwise
hidden layer is ``N²·h·8`` bytes) overshoots the bound N/c-fold.
"""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor
from repro.core.generator import MixBernoulliSampler

#: the bound's constant: the records keep ~5 (N, h)-sized arrays plus
#: ~10 (N, K) ones (~7 N·h·8 bytes at h=16, K=3)
STATE_FACTOR = 10


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    return 0


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
