"""Benchmark of the VRDAG reproduction: fit, generate and query serving.

Run from the repository root::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all   # one interpreter each
    python3 perfbench/run.py --self-test      # every oracle must fire

One run prepares the workload's inputs from ``--seed``, sets it up
several times (``setup_s`` is the median), measures a single-process
closed loop with one op in flight for ``--seconds``, checks every
result against the workload's oracle and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, times scaled to
nominal host speed (see :func:`reference_seconds`); ``--trace 1``
runs every other op with the layer tracer installed and reports the
per-layer metrics, including the tracing overhead (traced against
untraced ops of the same run).  It exits 1 when an oracle fails and 2
when the program source is missing.  See ``perfbench/README.md``.
"""

import os

# one BLAS thread, pinned before anything imports numpy: the host has two
# cores and the worker process of serve_process needs one of them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
#: a tail percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10
#: nominal duration of ``reference_seconds`` (its median on the 2-vCPU
#: host the bounds were set on); gated times are scaled to this speed
REFERENCE_SECONDS = 0.0045
_REFERENCE_DATA = []


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no program source at {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def host_info(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_seconds() -> float:
    """Time a fixed interpreter loop plus a numpy sort.

    The host's speed drifts by up to ~30% over seconds to minutes, for
    interpreted and numpy code alike.  Timing this kernel right before
    and after each op gives the speed the op ran at, so gated times can
    be reported at the nominal speed ``REFERENCE_SECONDS``.
    """
    import numpy as np

    if not _REFERENCE_DATA:
        _REFERENCE_DATA.append(np.random.default_rng(0).random(200_000))
    start = perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    np.sort(_REFERENCE_DATA[0])
    return perf_counter() - start


def scaled(fn):
    """Run ``fn``; return its result, wall seconds and speed scale.

    The scale turns the wall into the wall at nominal host speed.
    """
    before = reference_seconds()
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    return result, seconds, 2 * REFERENCE_SECONDS / (
        before + reference_seconds()
    )


# ----------------------------------------------------------------------
def timed_phase(wl, seconds: float, tracer=None):
    """Closed loop, one op in flight, for at least ``seconds``.

    The loop stops only after whole cycles of the workload's distinct
    inputs, so every run samples them equally.  With a tracer, every
    other op runs traced, and the assignment flips each cycle so each
    input is measured both ways; the tracer is installed only around
    traced ops.  Returns ``(latencies, scales, traced, records,
    profiles)``: untraced ops carry the speed scale of :func:`scaled`
    (traced ops 1.0), a profile is an ``(OpProfile, workload counters)``
    pair.
    """
    from repro.graph.store import track_dense_materializations
    from tracing import OpProfile
    from workloads import OpFailure

    latencies, scales, flags, records, profiles = [], [], [], [], []
    period = wl.cycle * (2 if tracer else 1)
    gc.collect()
    start = perf_counter()
    i = 0
    while True:
        wl.before_op(i)
        traced = tracer is not None and (i % wl.cycle + i // wl.cycle) % 2
        if not traced:
            raw, wall, scale = scaled(lambda: _guarded(wl, i))
            latencies.append(wall)
            scales.append(scale)
        else:
            wl.trace_before(i)
            tracer.install()
            try:
                with track_dense_materializations() as dense:
                    with tracer.op(i) as root:
                        raw = _guarded(wl, i)
            finally:
                tracer.uninstall()
            tracer.spans[root].attrs["dense_materializations"] = dense()
            latencies.append(tracer.spans[root].seconds)
            scales.append(1.0)
        flags.append(bool(traced))
        record = raw if isinstance(raw, OpFailure) else wl.record(i, raw)
        records.append(record)
        if traced and wl.ok(record):
            extra = wl.trace_after(tracer, root, record)
            profiles.append((OpProfile(tracer, root), extra))
        i += 1
        if perf_counter() - start >= seconds and i % period == 0:
            return latencies, scales, flags, records, profiles


def _guarded(wl, i):
    """One op; an exception becomes a failure record for the oracle."""
    from workloads import OpFailure

    try:
        return wl.op(i)
    except Exception as exc:
        return OpFailure(repr(exc))


def tail_ms(latencies):
    """p90 in ms, or ``None`` below ``TAIL_SAMPLES`` samples beyond it."""
    n = len(latencies)
    if n - math.ceil(0.9 * n) < TAIL_SAMPLES:
        return None
    return statistics.quantiles(latencies, n=10)[8] * 1e3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    contract = load_contract()
    import_program()
    from tracing import Tracer, layer_sample
    from workloads import WORKLOADS, OracleError

    os.makedirs(OUT, exist_ok=True)
    info = host_info(seed)
    wl = WORKLOADS[name](seed, OUT)
    wl.prepare()
    setups = []
    tracer = Tracer() if trace else None
    try:
        for rep in range(wl.setup_repeats):
            if rep:
                wl.teardown()
            gc.collect()
            setups.append(scaled(wl.setup)[1:])
        latencies, scales, flags, records, profiles = timed_phase(
            wl, seconds, tracer
        )
        rss = peak_rss_mb()
        run_layers = wl.run_layer_metrics()
    finally:
        wl.teardown()
    try:
        verdict, correct = wl.check(list(records)), True
    except OracleError as exc:
        verdict, correct = f"FAILED: {exc}", False
    failed = sum(not wl.ok(r) for r in records)

    print(f"perfbench {name} seconds={seconds} trace={int(trace)} "
          f"host={json.dumps(info)}")
    if trace:
        untraced_p50 = statistics.median(
            x for x, f in zip(latencies, flags) if not f
        )
        traced_p50 = statistics.median(
            x for x, f in zip(latencies, flags) if f
        )
        samples = [{**layer_sample(p, wl.epochs), **extra}
                   for p, extra in profiles]
        # median_low keeps counts whole: every value is one op's reading
        values = {
            key: statistics.median_low(s[key] for s in samples)
            for key in samples[0]
        } if samples else {}
        values.update(run_layers)
        values["trace.overhead_pct"] = (
            (traced_p50 - untraced_p50) / untraced_p50 * 100
        )
        declared = contract["per_layer"]
        mismatch = {m["name"] for m in declared} ^ set(values)
        if samples and mismatch:
            fail(f"per-layer metrics out of step with BENCHMARK.json: "
                 f"{sorted(mismatch)}")
        for m in declared:
            print(f"  {m['name']:<40} {values.get(m['name'], 0.0):>14.4f} "
                  f"{m['unit']}")
        layers = {name for p, _ in profiles for name in p.self_time}
        own = {
            name: statistics.median(p.own(name) for p, _ in profiles) * 1e3
            for name in layers
        }
        print("  self ms per layer (median per traced op): " + ", ".join(
            f"{name} {ms:.2f}" for name, ms in
            sorted(own.items(), key=lambda kv: -kv[1])
        ))
        print(f"  self times sum to each traced op's wall (asserted); their "
              f"medians sum to {sum(own.values()):.2f} ms against an "
              f"untraced p50 of {untraced_p50 * 1e3:.2f} ms (traced "
              f"{traced_p50 * 1e3:.2f} ms; {sum(flags)} traced and "
              f"{len(flags) - sum(flags)} untraced interleaved ops)")
        if abs(values.get("trace.overhead_pct", 0.0)) > 5:
            print("  WARN: traced and untraced op walls differ by more "
                  "than 5% (tracing cost or host drift)")
        tracer.write(
            os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"),
            {"workload": name, "host": info},
        )
    else:
        work = sum(wl.work(r) for r in records if wl.ok(r))
        nominal = [x * k for x, k in zip(latencies, scales)]
        measured = {
            "setup_s": statistics.median(x for x, _ in setups),
            "p50_ms": statistics.median(latencies) * 1e3,
            "p90_ms": tail_ms(latencies),
            "throughput_per_s": work / sum(latencies),
        }
        values = {
            "setup_s": statistics.median(x * k for x, k in setups),
            "p50_ms": statistics.median(nominal) * 1e3,
            "p90_ms": tail_ms(nominal),
            "throughput_per_s": work / sum(nominal),
            "peak_rss_mb": rss,
        }
        declared = contract["end_to_end"]
        print(f"  host speed scale   {statistics.median(scales):.3f} "
              f"(median; 1 = reference kernel in "
              f"{REFERENCE_SECONDS * 1e3:g} ms); times below are at that "
              "nominal speed, [measured wall] in brackets")
        print(f"  setup_s            {values['setup_s']:.4f} s "
              f"[{measured['setup_s']:.4f}] (median of {wl.setup_repeats} "
              "set-ups)")
        print(f"  p50_ms             {values['p50_ms']:.3f} ms "
              f"[{measured['p50_ms']:.3f}] (n={len(latencies)})")
        if values["p90_ms"] is None:
            print(f"  p90_ms             n/a (needs {TAIL_SAMPLES} samples "
                  f"beyond p90, n={len(latencies)})")
        else:
            print(f"  p90_ms             {values['p90_ms']:.3f} ms "
                  f"[{measured['p90_ms']:.3f}] (n={len(latencies)})")
        print(f"  throughput_per_s   {values['throughput_per_s']:.2f} "
              f"[{measured['throughput_per_s']:.2f}] {wl.work_unit}/s")
        print(f"  peak_rss_mb        {values['peak_rss_mb']:.1f} MB")
        print(f"  error_rate         {failed / len(records):.4f} "
              f"({failed}/{len(records)} ops)")
        if name == "serve_live":
            print(f"  ingest_to_query_ms {values['p50_ms']:.3f} ms "
                  f"[{measured['p50_ms']:.3f}] (each op ingests one step "
                  "and answers the first batch pinned to its epoch)")
    print(f"  oracle: {verdict}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump({"host": info, "setups_s_scale": setups,
                   "latencies_s": latencies, "scales": scales,
                   "metrics": metrics, "oracle": verdict}, fh)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter, one after another."""
    codes = {}
    for w in load_contract()["workloads"]:
        codes[w["name"]] = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             w["name"], "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, timeout=900,
        ).returncode
    print(f"perfbench all: exit codes {codes}")
    return max(codes.values())


def self_test(seed: int) -> int:
    """Each oracle passes on clean records and fires on a corrupted one."""
    import_program()
    from workloads import WORKLOADS, OracleError

    os.makedirs(OUT, exist_ok=True)
    broken = []
    for name, cls in WORKLOADS.items():
        wl = cls(seed, OUT)
        wl.prepare()
        wl.setup()
        try:
            _, _, _, records, _ = timed_phase(wl, 0.0)
        finally:
            wl.teardown()
        try:
            wl.check(list(records))
        except OracleError as exc:
            broken.append(name)
            print(f"self-test {name}: oracle fails on clean records: {exc}")
            continue
        wl.corrupt(records)
        try:
            wl.check(records)
        except OracleError as exc:
            print(f"self-test {name}: oracle fires on a corrupted record: "
                  f"{exc}")
        else:
            broken.append(name)
            print(f"self-test {name}: corrupted record went unnoticed")
    print(f"self-test: {'FAILED ' + str(broken) if broken else 'ok'}")
    return 1 if broken else 0


def stop_children() -> None:
    """Stop and wait for every process this run started.

    Worker processes are joined by their service's ``close``; what is
    left is multiprocessing's resource tracker, started by the first
    shared-memory segment, which would otherwise outlive this process
    until it noticed the closed pipe.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main() -> int:
    try:
        return _main()
    finally:
        stop_children()


def _main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail(f"no BENCHMARK.json at {ROOT}")
    if args.self_test:
        return self_test(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    names = [w["name"] for w in load_contract()["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
