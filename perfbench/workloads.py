"""The four benchmark workloads, each driven through the public API.

A workload has five phases, called by ``run.py`` in this order:

* ``prepare`` — build the inputs (dataset twin, query stream, request
  seeds) from the seed; not timed.
* ``setup`` — everything from the first call into the program up to the
  first timed op, warm-up ops included; timed as ``setup_s`` and
  repeated, ``teardown`` releasing each repetition but the last.
* ``op`` — one timed operation; ``record`` turns its raw result into a
  compact record outside the timed region.
* ``check`` — the correctness oracle over every record; raises
  :class:`OracleError`.
* ``corrupt`` — spoil one record, so the self-test can prove the
  oracle fires.

Traced runs also call ``trace_before``/``trace_after`` around each op
(outside the root span) for per-op counters and replayed timings.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.api import (
    GenerationRequest,
    GenerationService,
    get_generator,
    load_artifact,
    save_artifact,
)
from repro.core import VRDAG, TrainConfig, VRDAGConfig, VRDAGTrainer
from repro.graph import DynamicAttributedGraph
from repro.graph.live import LiveStoreBuilder
from repro.graph.store import TemporalEdgeStore
from repro.serving import ProcessQueryService
from repro.serving.protocol import encode_queries, execute_encoded
from repro.workloads import (
    GraphQueryEngine,
    LiveQueryService,
    QueryRequest,
    QueryService,
    WorkloadConfig,
    WorkloadGenerator,
    serving_mix,
)
from repro.workloads.generator import Query, QueryKind

from tracing import Tracer, replay_kernels

HERE = os.path.dirname(os.path.abspath(__file__))


class OracleError(AssertionError):
    """A workload's outputs disagree with its correctness oracle."""


@dataclass
class OpFailure:
    """An op that raised instead of returning."""

    error: str


def load_twin(out_dir: str, seed: int, scale: float,
              timesteps: Optional[int] = None) -> TemporalEdgeStore:
    """The email dataset twin as a store, generated in a child interpreter.

    ``load_dataset`` builds a dense ``(T, N, N)`` stack on the way (about
    340 MB at ``scale=0.5, T=48``).  Building it in its own process keeps
    that out of this process's peak RSS, which then belongs to the
    workload.
    """
    path = os.path.join(out_dir, f"twin-{scale}-{timesteps}-{seed}.npz")
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), "--seed",
           str(seed), "--scale", str(scale), "--out", path]
    if timesteps is not None:
        cmd += ["--timesteps", str(timesteps)]
    subprocess.run(cmd, check=True, timeout=150)
    with np.load(path) as z:
        store = TemporalEdgeStore(
            int(z["num_nodes"]), int(z["num_timesteps"]),
            z["src"], z["dst"], z["t"], z["attributes"],
            validate=False, canonical=True,
        )
    os.remove(path)
    return store


def _digest(*arrays: np.ndarray) -> str:
    """Records keep digests, not arrays, so they do not inflate the RSS."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _store_digest(store: TemporalEdgeStore) -> str:
    return _digest(store.src, store.dst, store.t, store.attributes)


class Workload:
    """Defaults shared by every workload (see the module docstring)."""

    name = ""
    #: epochs per op; fit layers report per-epoch values
    epochs = 1
    #: what ``throughput_per_s`` counts
    work_unit = "ops"
    #: distinct op inputs; a timed phase ends only after whole cycles
    cycle = 1
    #: set-ups per run; ``setup_s`` is their median
    setup_repeats = 3

    def __init__(self, seed: int, out_dir: str):
        self.seed = int(seed)
        self.out_dir = out_dir
        self.rng = np.random.default_rng(self.seed)
        #: the service under test, closed by ``teardown``
        self.service = None

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()

    def before_op(self, i: int) -> None:
        """Untimed per-op bookkeeping (e.g. start a new ingest pass)."""

    def op(self, i: int):
        raise NotImplementedError

    def record(self, i: int, raw):
        raise NotImplementedError

    def work(self, record) -> float:
        raise NotImplementedError

    def ok(self, record) -> bool:
        return not isinstance(record, OpFailure)

    def check(self, records: List) -> str:
        raise NotImplementedError

    def corrupt(self, records: List) -> None:
        raise NotImplementedError

    # -- traced run ----------------------------------------------------
    def trace_before(self, i: int) -> None:
        pass

    def trace_after(self, tracer: Tracer, root: int, record) -> Dict:
        return {}

    def run_layer_metrics(self) -> Dict[str, float]:
        """Per-layer values measured once per run, not per op."""
        return {"serving.spawn_ms": 0.0, "serving.worker_resident_bytes": 0.0}

    def _failed(self, records: List) -> None:
        bad = [r for r in records if not self.ok(r)]
        if bad:
            raise OracleError(f"{len(bad)} ops failed, first: {bad[0]}")


# ----------------------------------------------------------------------
class Fit(Workload):
    name = "fit"
    epochs = 6
    work_unit = "temporal edges trained"

    def prepare(self):
        self.store = load_twin(self.out_dir, self.seed, scale=0.05)
        self.config = dict(
            num_nodes=self.store.num_nodes,
            num_attributes=self.store.num_attributes,
            hidden_dim=24, latent_dim=12, encode_dim=24, seed=self.seed,
        )

    def setup(self):
        # the warm-up op's history is the reference every timed op must
        # reproduce bit for bit
        self.reference = self.record(-1, self.op(-1))

    def op(self, i):
        # a fresh store-backed graph per op, as a freshly loaded dataset
        # would be: its snapshots densify on first use
        graph = DynamicAttributedGraph.from_store(self.store)
        model = VRDAG(VRDAGConfig(**self.config))
        return VRDAGTrainer(model, TrainConfig(epochs=self.epochs)).fit(graph)

    def record(self, i, raw):
        return tuple(float(x) for x in raw.loss_history)

    def work(self, record):
        return float(self.store.num_edges * self.epochs)

    def check(self, records):
        self._failed(records)
        first = self.reference
        for losses in records:
            if losses != first:
                raise OracleError(
                    f"loss history {losses} differs from the warm-up op's "
                    f"{first}"
                )
        if not np.all(np.isfinite(first)):
            raise OracleError(f"non-finite loss history {first}")
        if not first[-1] < first[0]:
            raise OracleError(f"loss did not decrease: {first}")
        return (f"{len(records)} loss histories bit-identical, finite, "
                f"decreasing {first[0]:.3f} -> {first[-1]:.3f}")

    def corrupt(self, records):
        records[-1] = records[-1][:-1] + (records[-1][-1] + 1e-9,)

    def trace_after(self, tracer, root, record):
        # the calibration after the last epoch has no public entry point:
        # a synthesized span from the last optimizer step to the op's end
        # adopts every root child that starts inside it
        steps = tracer.find(root, "nn.optim.step")
        start = tracer.spans[steps[-1]].end
        calibration = tracer.add(
            "trainer.calibration", start, tracer.spans[root].end, root
        )
        for span in tracer.spans[root + 1:calibration]:
            if span.parent == root and span.start >= start:
                span.parent = calibration
        return {}


# ----------------------------------------------------------------------
class Generate(Workload):
    name = "generate"
    work_unit = "snapshots generated"
    timesteps = 14
    cycle = 4

    def prepare(self):
        self.store = load_twin(self.out_dir, self.seed, scale=0.05)
        self.artifact = os.path.join(self.out_dir, f"vrdag-{self.seed}.npz")
        self.request_seeds = [
            int(s) for s in self.rng.integers(0, 2**31, self.cycle)
        ]

    def setup(self):
        generator = get_generator("VRDAG", epochs=2, seed=self.seed)
        generator.fit(DynamicAttributedGraph.from_store(self.store))
        save_artifact(generator, self.artifact)
        self.service = GenerationService(executor="serial")
        self.op(0)

    def op(self, i):
        seed = self.request_seeds[i % self.cycle]
        return self.service.run_batch(
            [GenerationRequest(self.artifact, self.timesteps, seed)]
        )[0]

    def record(self, i, raw):
        if not raw.ok:
            return OpFailure(repr(raw.error))
        store = raw.graph.store
        return (raw.request.seed, _store_digest(store), store.num_edges)

    def work(self, record):
        return float(self.timesteps)

    def check(self, records):
        self._failed(records)
        expected = {}
        for seed in sorted({r[0] for r in records}):
            direct = load_artifact(self.artifact).generate(
                self.timesteps, seed=seed
            )
            expected[seed] = _store_digest(direct.store)
        for seed, digest, _ in records:
            if digest != expected[seed]:
                raise OracleError(
                    f"request seed {seed}: served graph differs from "
                    "load_artifact(path).generate"
                )
        return (f"{len(records)} served graphs bit-identical to direct "
                f"generation over {len(expected)} seeds")

    def corrupt(self, records):
        seed, digest, edges = records[-1]
        records[-1] = (seed, digest[::-1], edges)

    def trace_after(self, tracer, root, record):
        return {"generate.edges": record[2]}


# ----------------------------------------------------------------------
def _shift_to_epoch(q: Query, epoch: int, t_len: int) -> Query:
    """Re-anchor a query drawn on the full sequence to ``epoch``.

    The draw's distance from the newest step is kept, clamped at step 0,
    so each batch stays recent-biased over the sealed steps only.
    """
    def shift(t):
        return max(0, epoch - t_len + t)

    if q.kind in (QueryKind.TEMPORAL_REACH, QueryKind.EDGE_WINDOW):
        u, v, t0, t1 = q.args
        args = (u, v, shift(t0), shift(t1))
        return Query(q.kind, args[2], args)
    return Query(q.kind, shift(q.t), q.args)


def _mixed_batches(graph, mix, count: int, size: int, pool: int,
                   rng) -> List[List[Query]]:
    """``count`` shuffled batches holding ``mix``'s exact shares of kinds.

    Drawing a kind per query would let a batch's share of a rare,
    expensive kind (2% ``triangle_count`` in the default mix) swing by a
    tenth from seed to seed.  Queries are instead drawn per kind with
    ``WorkloadGenerator`` (``pool`` in total) and composed in fixed
    counts.
    """
    total = sum(mix.values())
    pools = {
        kind: WorkloadGenerator(graph, WorkloadConfig(
            num_queries=max(1, round(pool * weight / total)),
            mix={kind: 1.0}, seed=int(rng.integers(2**31)),
        )).generate()
        for kind, weight in mix.items()
    }
    batches = []
    for _ in range(count):
        queries = [
            pools[kind][j]
            for kind, weight in mix.items()
            for j in rng.integers(0, len(pools[kind]),
                                  round(size * weight / total))
        ]
        batches.append([queries[j] for j in rng.permutation(len(queries))])
    return batches


def _cache_sample(before, after) -> Dict[str, float]:
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    return {
        "workloads.cache.hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
        "workloads.cache.misses": misses,
        "workloads.cache.invalidations":
            after.invalidations - before.invalidations,
        "workloads.cache.resident_bytes": after.resident_bytes,
    }


class ServeLive(Workload):
    name = "serve_live"
    work_unit = "queries"
    timesteps = cycle = 48
    batch_queries = 3000
    pool_queries = 4000
    chunk_events = 256
    #: one set-up is ~40 ms and varies by a quarter from one to the next
    setup_repeats = 15

    def prepare(self):
        self.store = load_twin(self.out_dir, self.seed, scale=0.5,
                               timesteps=self.timesteps)
        store = self.store
        # each step's events arrive shuffled, as a stream would deliver
        self.events = []
        for step in range(self.timesteps):
            lo, hi = store.offsets[step], store.offsets[step + 1]
            order = lo + self.rng.permutation(hi - lo)
            self.events.append((store.src[order], store.dst[order],
                                store.t[order]))
        batches = _mixed_batches(
            DynamicAttributedGraph.from_store(store), WorkloadConfig().mix,
            self.timesteps, self.batch_queries, self.pool_queries, self.rng,
        )
        self.batches = [
            QueryRequest([
                _shift_to_epoch(q, step + 1, self.timesteps) for q in batch
            ])
            for step, batch in enumerate(batches)
        ]

    def _start_pass(self):
        self.builder = LiveStoreBuilder(
            self.store.num_nodes, self.timesteps,
            attributes=self.store.attributes,
        )
        self.service = LiveQueryService(self.builder, executor="serial")

    def setup(self):
        self._start_pass()
        self.op(0)

    def before_op(self, i):
        if i % self.timesteps == 0:
            self.service.close()
            self._start_pass()

    def op(self, i):
        step = i % self.timesteps
        src, dst, t = self.events[step]
        for lo in range(0, src.size, self.chunk_events):
            hi = lo + self.chunk_events
            self.builder.extend(src[lo:hi], dst[lo:hi], t[lo:hi])
        self.builder.seal_step()
        return step, self.service.run_batch([self.batches[step]])

    def record(self, i, raw):
        step, (epoch, (result,)) = raw
        if not result.ok:
            return OpFailure(repr(result.error))
        return (step, epoch, _digest(result.cardinalities),
                result.seconds_by_kind)

    def work(self, record):
        return float(self.batch_queries)

    def _bulk_store(self, epoch: int) -> TemporalEdgeStore:
        cols = [np.concatenate(c) for c in zip(*self.events[:epoch])]
        return TemporalEdgeStore(
            self.store.num_nodes, self.timesteps, *cols,
            self.store.attributes,
        )

    def check(self, records):
        self._failed(records)
        expected = {}
        for step in sorted({r[0] for r in records}):
            prefix = self._bulk_store(step + 1)
            bulk = DynamicAttributedGraph.from_store(prefix)
            with QueryService(bulk, executor="serial") as service:
                expected[step] = _digest(service.run_batch(
                    [self.batches[step]]
                )[0].cardinalities)
        for step, epoch, cards, _ in records:
            if epoch != step + 1:
                raise OracleError(f"step {step} answered at epoch {epoch}")
            if cards != expected[step]:
                raise OracleError(
                    f"epoch {epoch}: live cardinalities differ from a "
                    "bulk-built store of the same prefix"
                )
        return (f"{len(records)} live batches equal bulk-built stores of "
                f"their epoch over {len(expected)} epochs")

    def corrupt(self, records):
        step, epoch, cards, by_kind = records[-1]
        records[-1] = (step, epoch, cards[::-1], by_kind)

    def trace_before(self, i):
        self._cache_before = self.service.plan_cache_stats()

    def trace_after(self, tracer, root, record):
        (service,) = tracer.find(root, "workloads.service")
        replay_kernels(tracer, service, record[3])
        return _cache_sample(self._cache_before,
                             self.service.plan_cache_stats())


# ----------------------------------------------------------------------
class ServeProcess(Workload):
    name = "serve_process"
    work_unit = "queries"
    batch_queries = 24000
    pool_queries = 8000
    cycle = 16
    warmup_ops = 2

    def prepare(self):
        self.store = load_twin(self.out_dir, self.seed, scale=0.5,
                               timesteps=48)
        self.graph = DynamicAttributedGraph.from_store(self.store)
        self.batches = [
            QueryRequest(batch) for batch in _mixed_batches(
                self.graph, serving_mix(), self.cycle, self.batch_queries,
                self.pool_queries, self.rng,
            )
        ]
        self.spawn_seconds: List[float] = []
        self._local = None

    def setup(self):
        start = perf_counter()
        self.service = ProcessQueryService(self.graph, num_workers=1)
        self.spawn_seconds.append(perf_counter() - start)
        for i in range(self.warmup_ops):
            self.op(i)

    def op(self, i):
        b = i % self.cycle
        return b, self.service.run_batch([self.batches[b]])[0]

    def record(self, i, raw):
        b, result = raw
        if not result.ok:
            return OpFailure(repr(result.error))
        return b, _digest(result.cardinalities), result.seconds_by_kind

    def work(self, record):
        return float(self.batch_queries)

    def check(self, records):
        self._failed(records)
        expected = {}
        with QueryService(self.graph, executor="serial") as local:
            for b in sorted({r[0] for r in records}):
                expected[b] = _digest(local.run_batch(
                    [self.batches[b]]
                )[0].cardinalities)
        for b, cards, _ in records:
            if cards != expected[b]:
                raise OracleError(
                    f"batch {b}: process-served cardinalities differ from "
                    "in-process QueryService"
                )
        return (f"{len(records)} process-served batches equal in-process "
                f"QueryService over {len(expected)} batches")

    def corrupt(self, records):
        b, cards, by_kind = records[-1]
        records[-1] = (b, cards[::-1], by_kind)

    # -- traced run ----------------------------------------------------
    def trace_before(self, i):
        if self._local is None:
            # the in-process twin of the worker's engine, warmed like it
            self._local = GraphQueryEngine(self.graph)
            for batch in self.batches[:self.warmup_ops]:
                execute_encoded(self._local, encode_queries(batch.queries))
        self._batch = self.batches[i % self.cycle]
        self._cache_before = self.service.plan_cache_stats()

    def trace_after(self, tracer, root, record):
        (router,) = tracer.find(root, "serving.router")
        replay_kernels(tracer, router, record[2])
        encoded = encode_queries(self._batch.queries)
        start = perf_counter()
        execute_encoded(self._local, encoded)
        in_process = perf_counter() - start
        (encode,) = tracer.find(root, "serving.protocol.encode")
        overhead = (tracer.spans[router].seconds
                    - tracer.spans[encode].seconds - in_process)
        return {
            "serving.overhead_ms": overhead * 1e3,
            **_cache_sample(self._cache_before,
                            self.service.plan_cache_stats()),
        }

    def run_layer_metrics(self):
        return {
            "serving.spawn_ms": float(np.median(self.spawn_seconds)) * 1e3,
            "serving.worker_resident_bytes": float(
                self.service.shared_memory_stats()["worker_resident_bytes"]
            ),
        }


WORKLOADS = {w.name: w for w in (Fit, Generate, ServeLive, ServeProcess)}
