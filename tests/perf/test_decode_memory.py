"""Memory pin: the no-grad decode's working set is cache-sized blocks.

``MixBernoulliSampler.sample_edges`` evaluates the θ head in row blocks
of ``repro.autodiff.fused._PAIR_BUDGET`` pairs, so its traced peak is
the ``(N, h)`` projection, a block's ``(pairs, h)`` temporaries and
the emitted edge columns.  At N=946, h=48, 32k-pair blocks (34 rows,
12 MB per ``(pairs, h)`` array) peaked at ~39 MB; 1024-pair blocks
(one row) peak at ~5.6 MB.  The θ bias is calibrated to a sparse
density, as training does, so the edge columns (16 bytes an edge)
stay a small share of the bound.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.generator import MixBernoulliSampler

PEAK_BOUND_BYTES = 8_000_000


@pytest.mark.perf
def test_sample_edges_peak_is_block_sized():
    n, d = 946, 48
    rng = np.random.default_rng(0)
    sampler = MixBernoulliSampler(d, num_components=3, rng=rng)
    sampler.calibrate_bias(0.01)
    states = rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        src, _ = sampler.sample_edges(states, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert src.size > 0
    assert peak <= PEAK_BOUND_BYTES, f"sample_edges peaked at {peak} bytes"
