"""Joint optimization loop for VRDAG (§III-E).

Each epoch runs inside a fresh :class:`~repro.autodiff.tape.Tape` (see
``docs/training.md``): the forward pass records flat op entries and the
backward pass is a single reverse sweep with fused VJP kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.autodiff import Tape
from repro.core.model import VRDAG
from repro.core.schedule import Schedule
from repro.graph import DynamicAttributedGraph
from repro.nn import Adam
from repro.profiling import profiler


@dataclass
class TrainConfig:
    """Optimization hyperparameters."""

    epochs: int = 30
    learning_rate: float = 5e-3
    grad_clip: float = 5.0
    weight_decay: float = 0.0
    verbose: bool = False
    #: optional wall-clock budget in seconds (None = unlimited)
    time_budget: Optional[float] = None
    #: early stopping: stop when the loss has not improved by at least
    #: ``min_delta`` for ``patience`` consecutive epochs (None = off)
    patience: Optional[int] = None
    min_delta: float = 1e-4
    #: optional per-epoch learning-rate schedule (overrides the flat
    #: ``learning_rate`` when set); see :mod:`repro.core.schedule`
    lr_schedule: Optional[Schedule] = None
    #: optional per-epoch KL-weight schedule (scales the config's
    #: ``kl_weight``); the standard anti-posterior-collapse warmup
    kl_schedule: Optional[Schedule] = None


@dataclass
class TrainResult:
    """Loss history and timing returned by :meth:`VRDAGTrainer.fit`."""

    loss_history: List[float] = field(default_factory=list)
    component_history: List[Dict[str, float]] = field(default_factory=list)
    epochs_run: int = 0
    train_seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        """Last recorded epoch loss (``nan`` before training)."""
        return self.loss_history[-1] if self.loss_history else float("nan")


class VRDAGTrainer:
    """Trains a :class:`VRDAG` on one observed dynamic attributed graph.

    The paper trains by maximizing the step-wise ELBO (Eq. 14) with the
    reparameterization trick; we use Adam with global gradient-norm
    clipping (BPTT through all T steps can spike gradients early on).
    """

    def __init__(self, model: VRDAG, config: Optional[TrainConfig] = None):
        self.model = model
        self.config = config or TrainConfig()
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )

    def fit(self, graph: DynamicAttributedGraph) -> TrainResult:
        """Optimize the step-wise ELBO on ``graph``; returns the history."""
        result = TrainResult()
        start = time.perf_counter()
        graph = self.model.calibrate(graph)
        best_loss = float("inf")
        stall = 0
        base_kl_weight = self.model.config.kl_weight
        for epoch in range(self.config.epochs):
            if self.config.lr_schedule is not None:
                self.optimizer.lr = self.config.lr_schedule.value(epoch)
            if self.config.kl_schedule is not None:
                self.model.config.kl_weight = (
                    base_kl_weight * self.config.kl_schedule.value(epoch)
                )
            # one fresh tape per epoch: forward records onto it, backward
            # replays it in reverse
            with Tape():
                with profiler.timer("trainer.forward"):
                    loss, logs = self.model.sequence_loss(graph)
                self.optimizer.zero_grad()
                with profiler.timer("trainer.backward"):
                    loss.backward()
            if self.config.grad_clip:
                self.optimizer.clip_grad_norm(self.config.grad_clip)
            with profiler.timer("trainer.optimizer_step"):
                self.optimizer.step()
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise FloatingPointError(
                    f"training diverged at epoch {epoch}: loss={loss_val}"
                )
            result.loss_history.append(loss_val)
            result.component_history.append(logs)
            result.epochs_run = epoch + 1
            if self.config.verbose:
                print(
                    f"epoch {epoch:3d}  loss={loss_val:.4f}  "
                    + "  ".join(f"{k}={v:.4f}" for k, v in logs.items())
                )
            elapsed = time.perf_counter() - start
            if self.config.time_budget and elapsed > self.config.time_budget:
                break
            if self.config.patience is not None:
                if loss_val < best_loss - self.config.min_delta:
                    best_loss = loss_val
                    stall = 0
                else:
                    stall += 1
                    if stall >= self.config.patience:
                        break
        self.model.config.kl_weight = base_kl_weight
        if self.model.config.num_attributes > 0:
            with profiler.timer("trainer.calibration"):
                self.model.set_attribute_noise(
                    self.model.attribute_residual_cov(graph)
                )
                self.model.set_noise_autocorrelation(
                    VRDAG.estimate_attribute_autocorrelation(graph)
                )
                self._calibrate_rollout(graph)
        result.train_seconds = time.perf_counter() - start
        return result

    def _calibrate_rollout(self, normalized_graph: DynamicAttributedGraph) -> None:
        """Fit the per-timestep output calibration from one rollout.

        Compares a free-running validation rollout against the training
        sequence (both in raw attribute space) and stores additive
        mean-bias and dispersion-top-up schedules on the model.
        """
        model = self.model
        t_len = normalized_graph.num_timesteps
        rollout = model.generate(t_len, seed=model.config.seed + 4242)
        f = model.config.num_attributes
        target_mean = np.zeros((t_len, f))
        extra = np.zeros((t_len, f, f))
        for t in range(t_len):
            x_true = model._denormalize_attrs(normalized_graph[t].attributes)
            x_roll = rollout[t].attributes
            target_mean[t] = x_true.mean(axis=0)
            # recentring removes the mean wander; only the (full
            # covariance) dispersion deficit of the centred rollout
            # needs topping up — PSD-projected inside the model
            deficit = (
                np.cov(x_true, rowvar=False) - np.cov(x_roll, rowvar=False)
            ).reshape(f, f)
            extra[t] = deficit
        model.set_output_calibration(target_mean, extra)
