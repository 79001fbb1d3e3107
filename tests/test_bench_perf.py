"""The committed ``BENCH_perf.json`` keeps one kernel-entry shape.

Every ``kernels`` entry is a kernel timed next to its reference twin
(``scripts/bench_report.py``); an entry without a twin measures a path
the end-to-end benchmark owns and belongs there instead.
"""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
KERNELS = json.loads(BENCH.read_text())["kernels"]


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_entry_has_twin_fields(name):
    entry = KERNELS[name]
    missing = {"n", "reference_s", "vectorized_s", "speedup"} - set(entry)
    assert not missing, f"{name} lacks {sorted(missing)}"
    assert entry["speedup"] == pytest.approx(
        entry["reference_s"] / entry["vectorized_s"]
    )
