"""Table I — structure generation quality.

Eight network-property discrepancies for every generator on every
dataset twin.  The paper claims that VRDAG and the temporal-walk
methods dominate the static baselines and that VRDAG leads most
degree-distribution and PLE columns.  At this reduced scale that
claim does not hold: on the Email twin at scale 0.05 over seeds 0-2,
VRDAG's mean rank is 4.67 of 7 with 1 column lead out of 24.  This
run checks only the shape of the table: one row per method, every
metric present.  Dymond runs
only on Email (its motif storage cannot hold the larger datasets —
same as the paper).
"""

import pytest

from repro.eval import experiments as E

from benchmarks.conftest import BENCH_EPOCHS, BENCH_SCALES, format_table, record

METRICS = [
    "in_deg_dist", "out_deg_dist", "clus_dist", "in_ple",
    "out_ple", "wedge_count", "nc", "lcc",
]

METHODS_SMALL = ["GRAN", "GenCAT", "TagGen", "Dymond", "TGGAN", "TIGGER", "VRDAG"]
METHODS_LARGE_ATTRIBUTED = ["TagGen", "TGGAN", "TIGGER", "VRDAG"]  # Brain/GDELT rows

DATASET_METHODS = {
    "email": METHODS_SMALL,
    "bitcoin": [m for m in METHODS_SMALL if m != "Dymond"],
    "wiki": [m for m in METHODS_SMALL if m != "Dymond"],
    "guarantee": [m for m in METHODS_SMALL if m != "Dymond"],
    "brain": METHODS_LARGE_ATTRIBUTED,
    "gdelt": METHODS_LARGE_ATTRIBUTED,
}


@pytest.mark.parametrize("dataset", list(DATASET_METHODS))
def test_table1(benchmark, dataset):
    def run():
        return E.run_table1(
            dataset,
            methods=DATASET_METHODS[dataset],
            scale=BENCH_SCALES[dataset],
            seed=0,
            epochs=BENCH_EPOCHS,
        )

    rows_by_method = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [method] + [f"{metrics[m]:.4f}" for m in METRICS]
        for method, metrics in rows_by_method.items()
    ]
    record(
        f"table1_{dataset}",
        format_table(
            f"Table I block — {dataset}", ["method"] + METRICS, rows
        ),
    )
    assert "VRDAG" in rows_by_method
