"""Load-time gate: a v4 artifact (one blob member) loads in at most half
the time of the same generator as a v3 artifact (one member per array).

The committed ``vrdag_v3_c61ebd7.npz`` holds ~70 arrays; each v3 member
read parses its own npy header and inflates its own zlib stream.  Its
v4 re-save is read as one stored member and hashed in one pass.  The
loads are timed interleaved so host noise hits both formats alike; on
a 2-vCPU x86 host the v4/v3 median ratio is about 0.25.  The gate fails
if the writer goes back to one member per array.
"""

import statistics
import time
from pathlib import Path

import pytest

from repro import api

V3_FIXTURE = Path(__file__).parents[1] / "api" / "data" / "vrdag_v3_c61ebd7.npz"
ROUNDS = 25
MAX_RATIO = 0.5


def _seconds(path) -> float:
    start = time.perf_counter()
    api.load_artifact(path)
    return time.perf_counter() - start


@pytest.mark.perf
def test_v4_load_is_at_most_half_of_v3(tmp_path):
    v4 = tmp_path / "vrdag_v4.npz"
    api.save_artifact(api.load_artifact(V3_FIXTURE), v4)
    _seconds(V3_FIXTURE), _seconds(v4)  # warm imports and page cache
    v3_times, v4_times = [], []
    for _ in range(ROUNDS):
        v3_times.append(_seconds(V3_FIXTURE))
        v4_times.append(_seconds(v4))
    v3_med = statistics.median(v3_times)
    v4_med = statistics.median(v4_times)
    assert v4_med <= MAX_RATIO * v3_med, (
        f"v4 load median {v4_med * 1e3:.2f} ms is more than "
        f"{MAX_RATIO}x the v3 median {v3_med * 1e3:.2f} ms"
    )
