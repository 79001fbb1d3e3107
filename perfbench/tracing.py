"""Outside-in span tracing for the traced benchmark run.

The tracer wraps the public callables of each layer (``HOOKS``) from
the benchmark's side, so the program under test carries no tracing
code.  Spans are kept in memory as ``(name, start, end, parent, op)``
plus a small attribute dict and written out when the run ends.  A
span is only recorded while an op (the root span) is open, so oracle
and bookkeeping calls between ops never show up in a profile.

A layer's *self* time is its span's duration minus the durations of
its direct children; the self times of every span in one op sum to
the root span's duration, which :class:`OpProfile` asserts.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: (module, attribute path, span name, attribute hook) — the public
#: callables wrapped in the traced run.  The attribute hook receives the
#: call's positional arguments and returns span attributes.
HOOKS = (
    # repro.core / repro.autodiff / repro.nn
    ("repro.core.model", "VRDAG.sequence_loss", "trainer.forward", None),
    ("repro.core.generator", "MixBernoulliSampler.log_likelihood",
     "core.generator.loglik", None),
    ("repro.autodiff.tape", "Tape.backward", "autodiff.backward",
     lambda args: {"tape_records": len(args[0])}),
    ("repro.nn.optim", "Adam.step", "nn.optim.step", None),
    ("repro.nn.optim", "Optimizer.clip_grad_norm", "nn.optim.step", None),
    ("repro.core.encoder", "BiFlowEncoder.forward", "core.encoder", None),
    ("repro.core.recurrence", "RecurrenceUpdater.forward",
     "core.recurrence", None),
    ("repro.core.latent", "PriorNetwork.forward", "core.latent", None),
    ("repro.core.latent", "PosteriorNetwork.forward", "core.latent", None),
    ("repro.core.generator", "AttributeDecoder.forward",
     "core.attr_decoder", None),
    # repro.api / repro.generation / repro.graph
    ("repro.api.service", "GenerationService.run_batch", "api.service", None),
    ("repro.api.artifacts", "load_artifact", "api.artifacts.load", None),
    ("repro.generation.runner", "ShardedStructureDecoder.__call__",
     "generation.decode", None),
    ("repro.graph.store", "TemporalEdgeStoreBuilder.add_step",
     "graph.store.build", None),
    ("repro.graph.store", "TemporalEdgeStoreBuilder.build",
     "graph.store.build", None),
    # repro.workloads / repro.graph.live
    ("repro.graph.live", "LiveStoreBuilder.extend", "graph.live.ingest", None),
    ("repro.graph.live", "LiveStoreBuilder.seal_step", "graph.live.ingest",
     None),
    ("repro.workloads.live", "LiveQueryService.refresh",
     "workloads.live.refresh", None),
    ("repro.workloads.service", "QueryService.run_batch", "workloads.service",
     None),
    # repro.serving
    ("repro.serving.router", "ProcessQueryService.run_batch",
     "serving.router", None),
    ("repro.serving.router", "encode_queries", "serving.protocol.encode",
     None),
)

#: prefix of the spans replayed from per-kind kernel timings
KERNEL_PREFIX = "workloads.kernel."


class Span:
    """One timed interval of one op; ``parent`` indexes ``Tracer.spans``."""

    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, end, parent, op, attrs):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> Dict:
        return {
            "id": index, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "op": self.op,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Records nested spans from wrapped callables, one op at a time."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._installed: List = []

    # -- recording ---------------------------------------------------
    def _open(self, name: str, attrs: Optional[Dict] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, perf_counter(), None, parent, self._op, attrs or {})
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of op ``op_id``; yields its index."""
        self._op = op_id
        index = self._open("op")
        try:
            yield index
        finally:
            self._close(index)
            self._op = None

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Insert a span measured elsewhere (replayed timings)."""
        self.spans.append(
            Span(name, start, end, parent, self.spans[parent].op, {})
        )
        return len(self.spans) - 1

    def find(self, root: int, name: str) -> List[int]:
        """Indices of the spans named ``name`` in ``root``'s op."""
        op = self.spans[root].op
        return [
            i for i in range(root, len(self.spans))
            if self.spans[i].op == op and self.spans[i].name == name
        ]

    # -- installation ------------------------------------------------
    def install(self, hooks=HOOKS) -> None:
        """Wrap every hooked callable; :meth:`uninstall` restores them."""
        for module, path, name, attr_hook in hooks:
            owner = importlib.import_module(module)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            # only wrap where the callable is defined, never shadow an
            # inherited one
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, attr_hook))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str, attr_hook) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name, attr_hook(args) if attr_hook else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    # -- output ------------------------------------------------------
    def write(self, path: str, header: Dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


class OpProfile:
    """Inclusive and self seconds per span name for one traced op."""

    def __init__(self, tracer: Tracer, root: int):
        spans = tracer.spans
        members = [
            i for i in range(root, len(spans))
            if spans[i].op == spans[root].op
        ]
        children: Dict[int, List[int]] = {i: [] for i in members}
        for i in members:
            if spans[i].parent is not None and i != root:
                children[spans[i].parent].append(i)
        self.wall = spans[root].seconds
        self.inclusive: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.attrs: Dict[str, float] = dict(spans[root].attrs)
        # depth-first from the root, remembering which names enclose a
        # span so a re-entered layer is counted once inclusively
        todo = [(root, frozenset())]
        while todo:
            i, enclosing = todo.pop()
            span = spans[i]
            own = span.seconds - sum(spans[c].seconds for c in children[i])
            self.self_time[span.name] = own + self.self_time.get(span.name, 0)
            if span.name not in enclosing:
                self.inclusive[span.name] = (
                    self.inclusive.get(span.name, 0.0) + span.seconds
                )
            if i != root:
                for key, value in span.attrs.items():
                    self.attrs[key] = self.attrs.get(key, 0) + value
            inner = enclosing | {span.name}
            todo.extend((c, inner) for c in children[i])
        accounted = sum(self.self_time.values())
        if abs(accounted - self.wall) > 1e-6 + 1e-3 * self.wall:
            raise RuntimeError(
                f"span self times sum to {accounted:.6f}s but the op took "
                f"{self.wall:.6f}s: overlapping or mis-parented spans"
            )

    def incl(self, name: str) -> float:
        return self.inclusive.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_time.get(name, 0.0)


def replay_kernels(tracer: Tracer, parent: int,
                   seconds_by_kind: Dict[str, float]) -> None:
    """Lay per-kind kernel timings out as children of ``parent``."""
    cursor = tracer.spans[parent].start
    for kind, seconds in seconds_by_kind.items():
        tracer.add(KERNEL_PREFIX + kind, cursor, cursor + seconds, parent)
        cursor += seconds


#: query kinds whose kernel timings are replayed (``QueryKind`` values)
KINDS = (
    "out_neighbors", "in_neighbors", "has_edge", "two_hop",
    "triangle_count", "attribute_range", "degree_topk", "temporal_reach",
    "edge_window",
)


def layer_sample(p: OpProfile, epochs: int) -> Dict[str, float]:
    """Per-layer values of one traced op; fit layers are per epoch.

    Every name a workload does not exercise reads 0, so each traced run
    reports the same metric set; workloads add their own counters
    (``trace_after``) on top.
    """
    ms, per_epoch = 1e3, 1e3 / epochs
    sample = {
        "trainer.forward_ms": p.incl("trainer.forward") * per_epoch,
        "core.generator.loglik_ms":
            p.incl("core.generator.loglik") * per_epoch,
        "autodiff.backward_ms": p.incl("autodiff.backward") * per_epoch,
        "autodiff.tape_records": p.attrs.get("tape_records", 0) / epochs,
        "nn.optim.step_ms": p.incl("nn.optim.step") * per_epoch,
        "trainer.calibration_ms": p.incl("trainer.calibration") * ms,
        "graph.dense_materializations":
            p.attrs.get("dense_materializations", 0),
        "core.encoder_ms": p.incl("core.encoder") * ms,
        "core.recurrence_ms": p.incl("core.recurrence") * ms,
        "core.latent_ms": p.incl("core.latent") * ms,
        "core.attr_decoder_ms": p.incl("core.attr_decoder") * ms,
        "api.artifacts.load_ms": p.incl("api.artifacts.load") * ms,
        "generation.decode_ms": p.incl("generation.decode") * ms,
        "graph.store.build_ms": p.incl("graph.store.build") * ms,
        "api.service.self_ms": p.own("api.service") * ms,
        "generate.edges": 0,
        "graph.live.ingest_ms": p.incl("graph.live.ingest") * ms,
        "workloads.live.refresh_ms": p.incl("workloads.live.refresh") * ms,
        "workloads.cache.hit_rate": 0.0,
        "workloads.cache.misses": 0,
        "workloads.cache.invalidations": 0,
        "workloads.cache.resident_bytes": 0,
        "workloads.service.self_ms": p.own("workloads.service") * ms,
        "serving.protocol.encode_ms":
            p.incl("serving.protocol.encode") * ms,
        "serving.overhead_ms": 0.0,
        "trace.unattributed_pct": p.own("op") / p.wall * 100,
    }
    for kind in KINDS:
        sample["workloads.kernel_ms." + kind] = (
            p.incl(KERNEL_PREFIX + kind) * ms
        )
    return sample
