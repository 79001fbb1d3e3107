"""The run facade: dataset × generator × metrics in one call.

``Pipeline`` wires the pieces the repo already has — the dataset twins,
the generator registry, the sharded decode and the metric suite — into
the uniform lifecycle the CLI, the docs and the benches all speak::

    result = Pipeline(dataset="email", generator="VRDAG",
                      metrics=["structure", "privacy"]).run()
    print(result.metrics["structure"]["in_deg_dist"])

It is deliberately thin: resolving names, timing the stages, and
threading non-default ``shards``/``executor`` knobs through to
:func:`repro.generation.generate_sharded` for VRDAG-backed generators
(the defaults call the generator's own ``generate``).
The facade adds no per-edge work — ``scripts/bench_report.py`` tracks
its overhead against the direct calls (<5%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.api.registry import generator_name_of, get_generator
from repro.baselines.base import GraphGenerator
from repro.graph import DynamicAttributedGraph
from repro.metrics import (
    attribute_emd,
    attribute_jsd,
    extended_attribute_report,
    motif_discrepancy,
    privacy_report,
    spearman_correlation_mae,
    structure_metric_table,
)
from repro.profiling import profiler
from repro.reliability import InjectedFault, fault_injector

__all__ = [
    "METRIC_SUITES",
    "Pipeline",
    "RunResult",
    "generate_with_decode",
    "list_metrics",
]


def _attribute_suite(
    original: DynamicAttributedGraph, generated: DynamicAttributedGraph
) -> Dict[str, float]:
    """Fig. 3 / Table II attribute fidelity (empty for F=0 graphs)."""
    if original.num_attributes == 0:
        return {}
    return {
        "jsd": attribute_jsd(original, generated),
        "emd": attribute_emd(original, generated),
        "spearman_mae": spearman_correlation_mae(original, generated),
    }


#: Named metric suites: each maps (original, generated) to a scalar or
#: a flat dict of scalars.  Register additional suites by inserting
#: into this mapping.
METRIC_SUITES: Dict[
    str, Callable[[DynamicAttributedGraph, DynamicAttributedGraph], Any]
] = {
    "structure": structure_metric_table,
    "attributes": _attribute_suite,
    "privacy": privacy_report,
    "motifs": lambda o, g: {"discrepancy": motif_discrepancy(o, g)},
    "extended": extended_attribute_report,
}


def list_metrics() -> List[str]:
    """Sorted names of the available metric suites."""
    return sorted(METRIC_SUITES)


def _vrdag_model(generator: GraphGenerator):
    """The wrapped VRDAG when ``generator`` supports the sharded decode."""
    from repro.core.model import VRDAG

    model = getattr(generator, "model", None)
    return model if isinstance(model, VRDAG) else None


def generate_with_decode(
    generator: GraphGenerator,
    num_timesteps: int,
    seed: Optional[int],
    *,
    shards: int = 1,
    executor: str = "serial",
) -> DynamicAttributedGraph:
    """Generate from a fitted generator, honoring the decode knobs.

    The single dispatch point shared by :class:`Pipeline`, the CLI and
    :class:`~repro.api.service.GenerationService`.  The serial defaults
    (``shards=1``, ``executor='serial'``) call ``generator.generate``
    directly for every generator.  Other values route VRDAG-backed
    generators through :func:`repro.generation.generate_sharded`
    (bit-identical for every ``shards``/``executor``); any other
    generator raises ``ValueError``.

    This is also a degradation point (``docs/reliability.md``): the
    sharded decode is bit-identical to the direct decode, so a fault in
    the sharded path (provoked via the ``pipeline.sharded_decode``
    injection point) falls back to ``generator.generate`` with
    identical output — degraded throughput, not a failed request.
    """
    if shards != 1 or executor != "serial":
        model = _vrdag_model(generator)
        if model is None:
            raise ValueError(
                f"{type(generator).__name__} does not support the sharded "
                "decode; use shards=1 / executor='serial'"
            )
        from repro.generation import generate_sharded

        try:
            fault_injector.fire(
                "pipeline.sharded_decode", key=(shards, executor)
            )
            return generate_sharded(
                model, num_timesteps, seed=seed,
                n_shards=shards, executor=executor,
            )
        except InjectedFault:
            # sharded decode faulted: the direct decode is its
            # bit-identical reference twin, so degrade to it
            pass
    return generator.generate(num_timesteps, seed=seed)


@dataclass
class RunResult:
    """Structured outcome of one :meth:`Pipeline.run`."""

    generator: str
    generator_config: Dict[str, Any]
    dataset: str
    num_timesteps: int
    seed: int
    shards: int
    executor: str
    fit_seconds: float
    generate_seconds: float
    metric_seconds: float
    metrics: Dict[str, Any]
    reference: DynamicAttributedGraph = field(repr=False)
    generated: DynamicAttributedGraph = field(repr=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (graphs summarized, not embedded)."""
        return {
            "generator": self.generator,
            "generator_config": _jsonable(self.generator_config),
            "dataset": self.dataset,
            "num_timesteps": self.num_timesteps,
            "seed": self.seed,
            "shards": self.shards,
            "executor": self.executor,
            "timings": {
                "fit_seconds": round(self.fit_seconds, 6),
                "generate_seconds": round(self.generate_seconds, 6),
                "metric_seconds": round(self.metric_seconds, 6),
            },
            "generated_summary": {
                "num_nodes": self.generated.num_nodes,
                "num_timesteps": self.generated.num_timesteps,
                "num_attributes": self.generated.num_attributes,
                "num_temporal_edges": self.generated.num_temporal_edges,
            },
            "metrics": _jsonable(self.metrics),
        }


class Pipeline:
    """One-shot ``fit -> generate -> evaluate`` over named components.

    Parameters
    ----------
    dataset:
        A dataset-twin name (see :func:`repro.datasets.list_datasets`)
        or an already-built :class:`DynamicAttributedGraph`.
    generator:
        A registry name or a :class:`GraphGenerator` instance (which
        must be of a registered class).
    metrics:
        Suite names from :data:`METRIC_SUITES`.
    generator_config:
        Construction kwargs when ``generator`` is a name; ``seed`` is
        filled from the pipeline seed unless given explicitly.
    scale, dataset_seed:
        Dataset-twin scaling knobs (ignored for graph inputs).
    timesteps:
        Generation horizon; defaults to the dataset's.
    seed:
        Generation seed (and default construction seed).
    shards, executor:
        Passed through to :func:`repro.generation.generate_sharded`
        for VRDAG-backed generators; any shard count / executor is
        bit-identical to the serial decode.  Non-VRDAG generators
        require the defaults (``shards=1``, ``executor="serial"``).
    artifact_out, generated_out:
        Optional paths: persist the fitted generator (artifact
        envelope) and the generated graph (``graph.io`` npz).
    """

    def __init__(
        self,
        dataset: Union[str, DynamicAttributedGraph],
        generator: Union[str, GraphGenerator],
        metrics: Sequence[str] = ("structure",),
        *,
        generator_config: Optional[Mapping[str, Any]] = None,
        scale: float = 0.05,
        dataset_seed: int = 0,
        timesteps: Optional[int] = None,
        seed: int = 0,
        shards: int = 1,
        executor: str = "serial",
        artifact_out: Optional[str] = None,
        generated_out: Optional[str] = None,
    ):
        unknown = [m for m in metrics if m not in METRIC_SUITES]
        if unknown:
            raise ValueError(
                f"unknown metric suites {unknown}; available: {list_metrics()}"
            )
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if timesteps is not None and timesteps < 1:
            raise ValueError("timesteps must be >= 1 (or None for the "
                             "dataset horizon)")
        self.dataset = dataset
        self.generator = generator
        self.metrics = tuple(metrics)
        self.generator_config = dict(generator_config or {})
        self.scale = scale
        self.dataset_seed = dataset_seed
        self.timesteps = timesteps
        self.seed = seed
        self.shards = shards
        self.executor = executor
        self.artifact_out = artifact_out
        self.generated_out = generated_out

    @classmethod
    def from_dict(cls, config: Mapping[str, Any]) -> "Pipeline":
        """Build a pipeline from a plain (e.g. JSON-loaded) mapping."""
        config = dict(config)
        try:
            dataset = config.pop("dataset")
            generator = config.pop("generator")
        except KeyError as exc:
            raise ValueError(
                f"pipeline config missing required key {exc.args[0]!r}"
            ) from None
        metrics = config.pop("metrics", ("structure",))
        known = {
            "generator_config", "scale", "dataset_seed", "timesteps",
            "seed", "shards", "executor", "artifact_out", "generated_out",
        }
        unknown = set(config) - known
        if unknown:
            raise ValueError(
                f"unknown pipeline config keys {sorted(unknown)}; "
                f"known: {sorted(known | {'dataset', 'generator', 'metrics'})}"
            )
        return cls(dataset, generator, metrics, **config)

    # ------------------------------------------------------------------
    def _resolve_dataset(self):
        if isinstance(self.dataset, DynamicAttributedGraph):
            return "<graph>", self.dataset
        from repro.datasets import load_dataset

        return self.dataset, load_dataset(
            self.dataset, scale=self.scale, seed=self.dataset_seed
        )

    def _resolve_generator(self) -> GraphGenerator:
        if isinstance(self.generator, GraphGenerator):
            if self.generator_config:
                raise ValueError(
                    "generator_config only applies when the generator is "
                    "given by name"
                )
            return self.generator
        config = dict(self.generator_config)
        config.setdefault("seed", self.seed)
        return get_generator(self.generator, **config)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute fit → generate → evaluate and collect the result."""
        name, reference = self._resolve_dataset()
        generator = self._resolve_generator()
        generator_name = generator_name_of(generator)

        t0 = perf_counter()
        if not generator.fitted:
            with profiler.timer(f"api.pipeline.fit.{generator_name}"):
                generator.fit(reference)
        fit_s = perf_counter() - t0

        steps = (
            self.timesteps
            if self.timesteps is not None
            else reference.num_timesteps
        )
        t0 = perf_counter()
        with profiler.timer(f"api.pipeline.generate.{generator_name}"):
            generated = generate_with_decode(
                generator, steps, self.seed,
                shards=self.shards, executor=self.executor,
            )
        gen_s = perf_counter() - t0

        t0 = perf_counter()
        results: Dict[str, Any] = {}
        with profiler.timer("api.pipeline.metrics"):
            for metric in self.metrics:
                results[metric] = METRIC_SUITES[metric](reference, generated)
        metric_s = perf_counter() - t0

        if self.artifact_out:
            from repro.api.artifacts import save_artifact

            save_artifact(generator, self.artifact_out)
        if self.generated_out:
            from repro.graph import io as graph_io

            graph_io.save(generated, self.generated_out)

        return RunResult(
            generator=generator_name,
            generator_config=generator.to_config(),
            dataset=name,
            num_timesteps=steps,
            seed=self.seed,
            shards=self.shards,
            executor=self.executor,
            fit_seconds=fit_s,
            generate_seconds=gen_s,
            metric_seconds=metric_s,
            metrics=results,
            reference=reference,
            generated=generated,
        )


def _jsonable(value: Any) -> Any:
    """Recursively coerce metric payloads into JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return round(float(value), 6)
    if isinstance(value, np.integer):
        return int(value)
    return value
