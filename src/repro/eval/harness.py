"""Timed generator runs + the generator registry used by all benches."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.baselines import GraphGenerator
from repro.core import TrainConfig, VRDAG, VRDAGConfig, VRDAGTrainer
from repro.core.schedule import LinearWarmup
from repro.graph import DynamicAttributedGraph
from repro.graph.store import track_dense_materializations
from repro.profiling import profiler


class VRDAGGenerator(GraphGenerator):
    """Adapts VRDAG to the common fit/generate protocol."""

    #: the trained model is re-encoded via the persistence helpers in
    #: :meth:`get_state`; the train result is fit-time telemetry only
    _STATE_EXCLUDE = ("model", "train_result")

    def __init__(
        self,
        epochs: int = 15,
        hidden_dim: int = 24,
        latent_dim: int = 12,
        encode_dim: int = 24,
        mixture_components: int = 3,
        bidirectional: bool = True,
        attr_loss: str = "sce",
        learning_rate: float = 5e-3,
        correlated_noise: bool = True,
        kl_warmup_epochs: int = 0,
        seed: int = 0,
    ):
        super().__init__(seed)
        self.epochs = epochs
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.encode_dim = encode_dim
        self.mixture_components = mixture_components
        self.bidirectional = bidirectional
        self.attr_loss = attr_loss
        self.learning_rate = learning_rate
        #: AR(1)-correlated generation noise (ablation: False = white)
        self.correlated_noise = correlated_noise
        #: KL annealing warmup length (0 = constant weight, the default)
        self.kl_warmup_epochs = kl_warmup_epochs
        self.model: Optional[VRDAG] = None
        self.train_result = None

    def fit(self, graph: DynamicAttributedGraph) -> "VRDAGGenerator":
        """Build and train a VRDAG sized to ``graph``."""
        cfg = VRDAGConfig(
            num_nodes=graph.num_nodes,
            num_attributes=graph.num_attributes,
            hidden_dim=self.hidden_dim,
            latent_dim=self.latent_dim,
            encode_dim=self.encode_dim,
            mixture_components=self.mixture_components,
            bidirectional=self.bidirectional,
            attr_loss=self.attr_loss,
            seed=self.seed,
        )
        self.model = VRDAG(cfg)
        kl_schedule = (
            LinearWarmup(1.0, self.kl_warmup_epochs)
            if self.kl_warmup_epochs > 0
            else None
        )
        trainer = VRDAGTrainer(
            self.model,
            TrainConfig(
                epochs=self.epochs,
                learning_rate=self.learning_rate,
                kl_schedule=kl_schedule,
            ),
        )
        self.train_result = trainer.fit(graph)
        if not self.correlated_noise:
            self.model.set_noise_autocorrelation(0.0)
        self.fitted = True
        return self

    def generate(self, num_timesteps: int,
                 seed: Optional[int] = None) -> DynamicAttributedGraph:
        """Algorithm 1 rollout from the trained model."""
        self._require_fitted()
        return self.model.generate(num_timesteps, seed=seed)

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model: VRDAG) -> "VRDAGGenerator":
        """Wrap an already-built (possibly trained) :class:`VRDAG`.

        Training hyperparameters that are not recoverable from the
        model (epochs, learning rate, …) keep their adapter defaults —
        they only matter for a future re-``fit``.
        """
        cfg = model.config
        adapter = cls(
            hidden_dim=cfg.hidden_dim,
            latent_dim=cfg.latent_dim,
            encode_dim=cfg.encode_dim,
            mixture_components=cfg.mixture_components,
            bidirectional=cfg.bidirectional,
            attr_loss=cfg.attr_loss,
            seed=cfg.seed,
        )
        adapter.model = model
        adapter.fitted = True
        return adapter

    def get_state(self):
        """Reflective state plus the full serialized VRDAG."""
        from repro.core.persistence import vrdag_state

        state = super().get_state()
        if self.model is not None:
            state["__model__"] = vrdag_state(self.model)
        return state

    def set_state(self, state) -> None:
        """Restore state, rebuilding the wrapped VRDAG."""
        from repro.core.persistence import vrdag_from_state

        state = dict(state)
        model_state = state.pop("__model__", None)
        super().set_state(state)
        self.model = (
            vrdag_from_state(model_state) if model_state is not None else None
        )
        self.train_result = None


@dataclass
class GeneratorSpec:
    """Named factory in the benchmark registry."""

    name: str
    factory: Callable[[], GraphGenerator]


@dataclass
class TimedRun:
    """Wall-clock results of one fit+generate cycle.

    ``dense_materializations`` counts how many store timesteps were
    densified to ``(N, N)`` matrices across fit + generate.  The walk
    baselines and every generate path keep it at 0; dense-core
    trainers (VRDAG's teacher-forced ELBO is O(N²) by construction)
    materialize at most T cached views of the training input —
    bounded by the input size, never per-epoch.  The underlying
    counter is process-global (see
    :func:`track_dense_materializations`), so densifications by
    concurrent threads during the run window would be attributed here.
    """

    name: str
    fit_seconds: float
    generate_seconds: float
    generated: DynamicAttributedGraph
    dense_materializations: int = 0


def make_vrdag(epochs: int = 15, seed: int = 0, **kwargs) -> VRDAGGenerator:
    """Benchmark-scale VRDAG factory."""
    return VRDAGGenerator(epochs=epochs, seed=seed, **kwargs)


def default_generators(seed: int = 0, epochs: int = 15) -> Dict[str, GeneratorSpec]:
    """The Table I comparison set (Dymond included where it fits).

    Factories resolve through the :mod:`repro.api` registry (imported
    lazily — the registry imports this module), so the experiment
    harness and the public API construct identical generators.
    """
    def spec(name: str, **config) -> GeneratorSpec:
        def factory(name=name, config=config) -> GraphGenerator:
            from repro.api import get_generator

            return get_generator(name, seed=seed, **config)

        return GeneratorSpec(name, factory)

    return {
        "GRAN": spec("GRAN"),
        "GenCAT": spec("GenCAT"),
        "TagGen": spec("TagGen"),
        "Dymond": spec("Dymond"),
        "TGGAN": spec("TGGAN"),
        "TIGGER": spec("TIGGER"),
        "VRDAG": spec("VRDAG", epochs=epochs),
    }


def timed_fit_generate(
    name: str,
    generator: GraphGenerator,
    graph: DynamicAttributedGraph,
    num_timesteps: Optional[int] = None,
    seed: int = 0,
) -> TimedRun:
    """Fit then generate, recording wall-clock for each stage.

    The input graph's columnar store is passed end-to-end: generators
    read it through the stream/CSR views and the migrated ones return
    store-backed graphs, so no dense round-trip sits between fit,
    generate and the metric scoring that follows (dense-core trainers
    may densify up to T cached views of a store-backed input — see
    :class:`TimedRun`).  Store→dense materializations across the run
    are counted on the result.
    """
    steps = num_timesteps or graph.num_timesteps
    with track_dense_materializations() as materialized:
        t0 = time.perf_counter()
        with profiler.timer(f"harness.fit.{name}"):
            generator.fit(graph)
        fit_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        with profiler.timer(f"harness.generate.{name}"):
            generated = generator.generate(steps, seed=seed)
        gen_s = time.perf_counter() - t0
    profiler.count(f"harness.dense_materializations.{name}", materialized())
    return TimedRun(
        name=name,
        fit_seconds=fit_s,
        generate_seconds=gen_s,
        generated=generated,
        dense_materializations=materialized(),
    )
