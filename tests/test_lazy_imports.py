"""Serving-only interpreters do not import the metric suite.

``repro.metrics`` pulls in ``scipy.stats`` (over a second of import
time), and nothing on the graph, workload or serving paths needs it,
so ``repro`` loads it lazily on first attribute access.  Checked in a
fresh interpreter: this test process has long imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro.workloads, repro.serving
assert "repro.metrics" not in sys.modules, "repro.metrics imported eagerly"
assert "scipy.stats" not in sys.modules, "scipy.stats imported eagerly"
from repro import metrics
assert callable(metrics.structure_metric_table)
import repro
assert repro.metrics is metrics
print("ok")
"""


def test_serving_imports_skip_metrics():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "ok"
