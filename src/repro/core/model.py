"""The assembled VRDAG model (Fig. 1) with training-step losses and
Algorithm 1 inference."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.autodiff import Tensor, functional as F, no_grad
from repro.core.config import VRDAGConfig
from repro.core.encoder import BiFlowEncoder
from repro.core.generator import AttributeDecoder, MixBernoulliSampler
from repro.core.latent import PosteriorNetwork, PriorNetwork
from repro.core.recurrence import RecurrenceUpdater
from repro.core import losses
from repro.graph import DynamicAttributedGraph, GraphSnapshot
from repro.graph.store import TemporalEdgeStoreBuilder
from repro.nn import Module


def _safe_cholesky(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor of a (possibly indefinite) symmetric matrix.

    Eigenvalues are clipped at zero first, so covariance *deficits*
    (differences of covariances, not guaranteed PSD) are projected onto
    the PSD cone before factorization.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.size == 0:
        return cov
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    psd = (vecs * vals) @ vecs.T
    return np.linalg.cholesky(psd + 1e-12 * np.eye(cov.shape[0]))


class _Ar1State:
    """Whitened AR(1) noise process: unit marginal, correlation ``rho``.

    ``step`` returns ``w_t = rho * w_{t-1} + sqrt(1 - rho^2) * eps_t``
    with i.i.d. standard-normal innovations, so every draw is
    marginally N(0, I) while consecutive draws correlate by ``rho``.
    Callers apply a per-step Cholesky factor to impose the step's own
    covariance without distorting it.
    """

    def __init__(self, rho: float):
        self.rho = float(rho)
        self._innovation_scale = float(np.sqrt(max(1.0 - self.rho**2, 0.0)))
        self._state: Optional[np.ndarray] = None

    def step(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        white = rng.standard_normal(shape)
        if self._state is None or self.rho == 0.0:
            self._state = white
        else:
            self._state = self.rho * self._state + self._innovation_scale * white
        return self._state


@dataclass
class StepLosses:
    """Per-timestep loss breakdown (Tensors, still on the tape)."""

    kl: Tensor
    struct: Tensor
    attr: Optional[Tensor]

    def total(self, cfg: VRDAGConfig) -> Tensor:
        """Weighted sum ``kl_w*KL + struct_w*BCE + attr_w*SCE`` (Eq. 14)."""
        out = cfg.kl_weight * self.kl + cfg.struct_weight * self.struct
        if self.attr is not None:
            out = out + cfg.attr_weight * self.attr
        return out


class VRDAG(Module):
    """Variational Recurrent Dynamic Attributed Graph generator.

    Usage::

        cfg = VRDAGConfig(num_nodes=N, num_attributes=F)
        model = VRDAG(cfg)
        VRDAGTrainer(model).fit(graph)
        synthetic = model.generate(num_timesteps=T)
    """

    def __init__(self, config: VRDAGConfig):
        super().__init__()
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.encoder = BiFlowEncoder(
            num_attributes=config.num_attributes,
            hidden_dim=config.hidden_dim,
            encode_dim=config.encode_dim,
            num_layers=config.gnn_layers,
            mlp_layers=config.mlp_layers,
            bidirectional=config.bidirectional,
            rng=rng,
        )
        self.prior = PriorNetwork(config.hidden_dim, config.latent_dim, rng=rng)
        self.posterior = PosteriorNetwork(
            config.encode_dim, config.hidden_dim, config.latent_dim, rng=rng
        )
        state_dim = config.latent_dim + config.hidden_dim
        self.structure_sampler = MixBernoulliSampler(
            state_dim, config.mixture_components, rng=rng
        )
        self.attribute_decoder = (
            AttributeDecoder(
                state_dim,
                config.num_attributes,
                activation=config.attr_activation,
                rng=rng,
            )
            if config.num_attributes > 0
            else None
        )
        self.recurrence = RecurrenceUpdater(
            config.encode_dim, config.latent_dim, config.time_dim,
            config.hidden_dim, rng=rng,
        )
        self._sample_rng = np.random.default_rng(config.seed + 1)
        # attribute normalization (set by calibrate)
        self._attr_mean = np.zeros(config.num_attributes)
        self._attr_std = np.ones(config.num_attributes)
        # observation noise for sampling X̃ (set by the trainer); shapes:
        # std (T, F) for reporting, Cholesky factors (T, F, F) for sampling
        self._attr_noise_std = np.zeros((1, config.num_attributes))
        self._attr_noise_chol = np.zeros(
            (1, config.num_attributes, config.num_attributes)
        )
        # raw-space per-timestep output calibration (set by the trainer):
        # corrects rollout exposure bias of attribute mean/dispersion
        self._attr_target_mean: Optional[np.ndarray] = None  # (T, F)
        self._attr_extra_chol = np.zeros(
            (1, config.num_attributes, config.num_attributes)
        )
        # AR(1) autocorrelation of the generation-time attribute noise
        # (0 = white noise; set by the trainer from the observed data)
        self._attr_noise_rho = 0.0

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------
    def calibrate(self, graph: DynamicAttributedGraph) -> DynamicAttributedGraph:
        """Data-dependent initialization before training.

        1. Sets the MixBernoulli θ bias to the observed mean edge
           density (sparse graphs would otherwise waste many epochs).
        2. Computes attribute mean/std and returns a *normalized copy*
           of the graph for training; :meth:`generate` de-normalizes
           its outputs so generated attributes live on the original
           scale.
        """
        n = graph.num_nodes
        density = graph.num_temporal_edges / max(
            graph.num_timesteps * n * (n - 1), 1
        )
        self.structure_sampler.calibrate_bias(density)
        if self.config.num_attributes == 0:
            return graph
        stacked = graph.attribute_tensor().reshape(-1, self.config.num_attributes)
        self._attr_mean = stacked.mean(axis=0)
        self._attr_std = np.maximum(stacked.std(axis=0), 1e-6)
        return self.normalize(graph)

    def normalize(self, graph: DynamicAttributedGraph) -> DynamicAttributedGraph:
        """``graph`` with attributes in the model's space (fitted mean/std).

        Returns ``graph`` itself when the model has no attributes;
        otherwise a graph sharing ``graph``'s edge columns with a
        rescaled attribute block.
        """
        if self.config.num_attributes == 0:
            return graph
        scaled = (graph.attribute_tensor() - self._attr_mean) / self._attr_std
        return DynamicAttributedGraph.from_store(
            graph.store.with_attributes(scaled)
        )

    def _denormalize_attrs(self, attrs: np.ndarray) -> np.ndarray:
        if self.config.num_attributes == 0:
            return attrs
        return attrs * self._attr_std + self._attr_mean

    def attribute_residual_cov(self, graph: DynamicAttributedGraph) -> np.ndarray:
        """Fitted per-timestep observation-noise covariance.

        Algorithm 1 line 5 *samples* X̃ ~ p_φ(X | ·); the decoder head
        predicts the conditional mean, so the trainer estimates the
        residual covariance per timestep on a teacher-forced pass and
        stores it as the observation noise used at generation time.
        The full F×F covariance (not just per-dimension variances)
        matters: real node attributes are cross-correlated (Table II),
        and independent noise would wash that structure out.
        ``graph`` must already be in the normalized attribute space.
        """
        if self.attribute_decoder is None:
            return np.zeros((0, 0, 0))
        f = self.config.num_attributes
        covs = []
        with no_grad():
            h = self.recurrence.initial_state(self.config.num_nodes)
            for t, snapshot in enumerate(graph):
                encoding = self.encoder(snapshot.adjacency, snapshot.attributes)
                q = self.posterior(encoding, h)
                z = q.mean()
                s = F.concat([z, h], axis=1)
                x_pred = self.attribute_decoder(s, snapshot.adjacency)
                res = snapshot.attributes - x_pred.data
                covs.append(np.cov(res, rowvar=False).reshape(f, f))
                h = self.recurrence(encoding, z, float(t), h)
        return np.stack(covs)  # (T, F, F)

    def set_attribute_noise(self, cov: np.ndarray) -> None:
        """Set the generation-time observation noise (normalized space).

        Accepts a per-timestep covariance schedule ``(T, F, F)``, a
        single covariance ``(F, F)``, or per-dimension stds ``(F,)``
        (promoted to a diagonal covariance).
        """
        cov = np.asarray(cov, dtype=np.float64)
        f = self.config.num_attributes
        if cov.ndim == 1:
            if cov.shape != (f,):
                raise ValueError(f"noise std must have {f} entries")
            cov = np.diag(cov**2)[None, :, :]
        elif cov.ndim == 2:
            if cov.shape != (f, f):
                raise ValueError(f"noise covariance must be ({f}, {f})")
            cov = cov[None, :, :]
        elif cov.ndim != 3 or cov.shape[1:] != (f, f):
            raise ValueError(f"noise covariance must be (T, {f}, {f})")
        self._attr_noise_chol = np.stack([_safe_cholesky(c) for c in cov])
        self._attr_noise_std = np.sqrt(
            np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0)
        )

    def set_noise_autocorrelation(self, rho: float) -> None:
        """Set the AR(1) coefficient of the attribute observation noise.

        With white noise (``rho=0``) the consecutive-snapshot attribute
        difference of a rollout is ``sqrt(2)``·σ regardless of how
        smoothly the real attributes evolve — an order of magnitude too
        jumpy for slowly-drifting data (Figs. 7–8).  An AR(1) noise
        process ``e_t = ρ e_{t-1} + sqrt(1-ρ²) w_t`` keeps the marginal
        covariance identical while shrinking consecutive differences by
        ``sqrt(1-ρ)``, matching the observed temporal smoothness.
        """
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        self._attr_noise_rho = float(rho)

    @staticmethod
    def estimate_attribute_autocorrelation(
        graph: DynamicAttributedGraph,
    ) -> float:
        """Fit the AR(1) ρ matching the data's consecutive differences.

        For a stationary AR(1) process, ``E[(x_{t+1} - x_t)^2] =
        2 σ² (1 - ρ)``; solving for ρ from the observed mean squared
        consecutive difference and variance (averaged over attribute
        dimensions) gives the coefficient that reproduces the data's
        step-to-step attribute smoothness.  Scale-invariant per
        dimension.  Returns 0 for sequences too short to estimate.
        """
        if graph.num_timesteps < 2 or graph.num_attributes == 0:
            return 0.0
        x = graph.attribute_tensor()  # (T, N, F)
        var = x.reshape(-1, x.shape[-1]).var(axis=0)  # (F,)
        msd = ((x[1:] - x[:-1]) ** 2).mean(axis=(0, 1))  # (F,)
        valid = var > 1e-12
        if not valid.any():
            return 0.0
        rho = 1.0 - msd[valid] / (2.0 * var[valid])
        return float(np.clip(rho.mean(), 0.0, 0.99))

    def set_output_calibration(
        self, target_mean: np.ndarray, extra_cov: np.ndarray
    ) -> None:
        """Per-timestep raw-space output calibration (trainer-fitted).

        Free-running rollouts accumulate exposure bias: the global
        attribute mean performs a seed-dependent random walk (structure
        feedback couples all hidden states) and dispersion shrinks (the
        decoder outputs conditional means).  The trainer therefore
        anchors the rollout: generated attributes are recentred to the
        training sequence's per-timestep mean trajectory and topped up
        with the (full-covariance) dispersion deficit measured on a
        validation rollout.  The model still provides the distribution
        *shape* (per-node multimodality, skew); only the first two
        global moments are pinned — using no data beyond the training
        graph.  ``extra_cov`` is ``(T, F, F)`` and is PSD-projected.
        """
        target_mean = np.atleast_2d(np.asarray(target_mean, dtype=np.float64))
        extra_cov = np.asarray(extra_cov, dtype=np.float64)
        f = self.config.num_attributes
        if target_mean.shape[1] != f:
            raise ValueError(f"calibration mean must have {f} columns")
        if extra_cov.ndim == 2:
            extra_cov = extra_cov[None, :, :]
        if extra_cov.ndim != 3 or extra_cov.shape[1:] != (f, f):
            raise ValueError(f"calibration covariance must be (T, {f}, {f})")
        self._attr_target_mean = target_mean
        self._attr_extra_chol = np.stack(
            [_safe_cholesky(c) for c in extra_cov]
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def sequence_loss(self, graph: DynamicAttributedGraph) -> tuple[Tensor, Dict[str, float]]:
        """Step-wise ELBO over the whole observed sequence (Eq. 14).

        Teacher-forced: the recurrence consumes the *ground truth*
        snapshots, the posterior conditions on them, and the decoders
        reconstruct them.  Returns the scalar loss tensor plus a float
        breakdown for logging.
        """
        cfg = self.config
        if graph.num_nodes != cfg.num_nodes:
            raise ValueError(
                f"graph has {graph.num_nodes} nodes, model expects {cfg.num_nodes}"
            )
        if graph.num_attributes != cfg.num_attributes:
            raise ValueError(
                f"graph has {graph.num_attributes} attributes, model expects "
                f"{cfg.num_attributes}"
            )
        h = self.recurrence.initial_state(cfg.num_nodes)
        total: Optional[Tensor] = None
        logs = {"kl": 0.0, "struct": 0.0, "attr": 0.0}
        for t, snapshot in enumerate(graph):
            step = self._training_step(snapshot, h, t)
            loss_t, h = step
            total = loss_t.total(cfg) if total is None else total + loss_t.total(cfg)
            logs["kl"] += float(loss_t.kl.data)
            logs["struct"] += float(loss_t.struct.data)
            if loss_t.attr is not None:
                logs["attr"] += float(loss_t.attr.data)
        steps = graph.num_timesteps
        for k in logs:
            logs[k] /= steps
        return total / float(steps), logs

    def _training_step(
        self, snapshot: GraphSnapshot, h_prev: Tensor, t: int
    ) -> tuple[StepLosses, Tensor]:
        encoding = self.encoder(snapshot.adjacency, snapshot.attributes)
        q = self.posterior(encoding, h_prev)
        p = self.prior(h_prev)
        z = q.sample(self._sample_rng)
        s = F.concat([z, h_prev], axis=1)
        kl = losses.gaussian_kl(q, p)
        if self.config.struct_negative_samples > 0:
            struct = -self.structure_sampler.sampled_log_likelihood(
                s, snapshot.adjacency,
                self.config.struct_negative_samples, self._sample_rng,
            )
        else:
            struct = -self.structure_sampler.log_likelihood(
                s, snapshot.adjacency
            )
        attr: Optional[Tensor] = None
        if self.attribute_decoder is not None:
            # attributes condition on the *true* adjacency (teacher forcing
            # of Eq. 10's structure-first factorization)
            x_pred = self.attribute_decoder(s, snapshot.adjacency)
            if self.config.attr_loss == "sce":
                attr = losses.sce_attribute_loss(
                    snapshot.attributes, x_pred, alpha=self.config.sce_alpha
                )
                if self.config.attr_mse_weight:
                    attr = attr + self.config.attr_mse_weight * (
                        losses.mse_attribute_loss(snapshot.attributes, x_pred)
                    )
            else:
                attr = losses.mse_attribute_loss(snapshot.attributes, x_pred)
        h_new = self.recurrence(encoding, z, float(t), h_prev)
        return StepLosses(kl=kl, struct=struct, attr=attr), h_new

    # ------------------------------------------------------------------
    # inference (Algorithm 1)
    # ------------------------------------------------------------------
    def generate(
        self,
        num_timesteps: int,
        seed: Optional[int] = None,
        *,
        structure_decoder: Optional[Callable] = None,
    ) -> DynamicAttributedGraph:
        """Generate a fresh dynamic attributed graph from scratch.

        Implements Algorithm 1 from ``H_0 = 0``.  The step loop is
        :meth:`_rollout`, the single free-running loop of the model:
        :func:`repro.core.continue_sequence` runs it too, from an
        encoded prefix instead.

        ``structure_decoder`` swaps the per-step structure decode: a
        callable ``(sampler, s, rng) -> (src, dst)`` returning
        CSR-ordered int64 edge columns for the step, and consuming
        ``rng`` exactly as :meth:`MixBernoulliSampler.sample_edges`
        would (one ``(N, 1)`` plus one ``(N, N)`` uniform draw).
        ``repro.generation.ShardedStructureDecoder`` plugs in here to
        run the decode across shards bit-identically; ``None`` uses
        the in-process fused decode.
        """
        if num_timesteps < 1:
            raise ValueError("num_timesteps must be >= 1")
        cfg = self.config
        rng = np.random.default_rng(seed if seed is not None else cfg.seed + 12345)
        h = self.recurrence.initial_state(cfg.num_nodes)               # line 1
        return self._rollout(h, 0, num_timesteps, rng, structure_decoder)

    def _rollout(
        self,
        h: Tensor,
        t0: int,
        num_timesteps: int,
        rng: np.random.Generator,
        structure_decoder: Optional[Callable] = None,
    ) -> DynamicAttributedGraph:
        """Algorithm 1's free-running loop for steps ``t0 .. t0+T-1``.

        Recurrently samples latents from the learned prior, decodes
        structure then attributes, and updates the hidden state ``h``
        from the *generated* snapshot.  ``t`` indexes the noise and
        calibration schedules and feeds ``float(t + 1)`` to the
        recurrence.

        Structure is decoded straight into a columnar store builder:
        the only dense ``(N, N)`` buffer is the single per-step scratch
        matrix the encoder/GAT consume (reused across steps), so peak
        structural memory is O(M + N²) transient — never an O(N²·T)
        snapshot stack — and the returned graph is store-backed.
        """
        cfg = self.config
        decode_structure = structure_decoder or (
            lambda sampler, s, step_rng: sampler.sample_edges(s, step_rng)
        )
        builder = TemporalEdgeStoreBuilder(cfg.num_nodes, cfg.num_attributes)
        adj_scratch = np.zeros((cfg.num_nodes, cfg.num_nodes))
        # AR(1)-correlated noise states are kept *whitened* (unit
        # marginal, shape (N, F)); each step applies the step's own
        # Cholesky factor, so the per-timestep marginal covariance is
        # exact while consecutive draws co-move with coefficient rho
        obs_state = _Ar1State(self._attr_noise_rho)
        extra_state = _Ar1State(self._attr_noise_rho)
        z_state = _Ar1State(self._attr_noise_rho)
        self.eval()
        with no_grad():
            for t in range(t0, t0 + num_timesteps):
                p = self.prior(h)                                       # line 3
                # latent sampling with AR(1)-correlated reparameterization
                # noise: marginally still N(mu, sigma), but consecutive
                # latents co-move with the data's fitted smoothness
                z_eps = z_state.step(p.mu.shape, rng)
                z = Tensor(p.mu.data + p.sigma.data * z_eps)
                s = F.concat([z, h], axis=1)
                src, dst = decode_structure(self.structure_sampler, s, rng)  # line 4
                adj_scratch[:] = 0.0
                if src.size:
                    adj_scratch[src, dst] = 1.0
                adj = adj_scratch
                if self.attribute_decoder is not None:                  # line 5
                    attrs = self.attribute_decoder(s, adj).data.copy()
                    if self._attr_noise_chol.any():
                        row = min(t, self._attr_noise_chol.shape[0] - 1)
                        attrs = attrs + (
                            obs_state.step(attrs.shape, rng)
                            @ self._attr_noise_chol[row].T
                        )
                else:
                    attrs = np.zeros((cfg.num_nodes, 0))
                encoding = self.encoder(adj, attrs)                     # line 6
                h = self.recurrence(encoding, z, float(t + 1), h)       # line 7
                out_attrs = self._denormalize_attrs(attrs)
                if self.config.num_attributes > 0 and (
                    self._attr_target_mean is not None
                ):
                    # past the fitted horizon the last calibrated row
                    # (the trend's endpoint) is kept
                    b_row = min(t, self._attr_target_mean.shape[0] - 1)
                    s_row = min(t, self._attr_extra_chol.shape[0] - 1)
                    out_attrs = (
                        out_attrs
                        - out_attrs.mean(axis=0)
                        + self._attr_target_mean[b_row]
                        + extra_state.step(out_attrs.shape, rng)
                        @ self._attr_extra_chol[s_row].T
                    )
                # sample_edges emits CSR order, loop-free, deduplicated
                builder.add_step(src, dst, out_attrs, canonical=True)   # line 8
        self.train()
        return DynamicAttributedGraph.from_store(builder.build())

    # ------------------------------------------------------------------
    def expected_adjacency(self, num_timesteps: int, seed: Optional[int] = None
                           ) -> np.ndarray:
        """Marginal edge-probability matrices along a generated rollout.

        Diagnostic helper: rolls the recurrence forward sampling latents
        but records Ã (Eq. 11 marginals) instead of hard samples.
        """
        cfg = self.config
        rng = np.random.default_rng(seed if seed is not None else cfg.seed + 54321)
        probs = np.zeros((num_timesteps, cfg.num_nodes, cfg.num_nodes))
        self.eval()
        with no_grad():
            h = self.recurrence.initial_state(cfg.num_nodes)
            for t in range(num_timesteps):
                z = self.prior(h).sample(rng)
                s = F.concat([z, h], axis=1)
                probs[t] = self.structure_sampler.edge_probabilities(s)
                adj = (probs[t] > 0.5).astype(np.float64)
                np.fill_diagonal(adj, 0.0)
                if self.attribute_decoder is not None:
                    attrs = self.attribute_decoder(s, adj).data.copy()
                else:
                    attrs = np.zeros((cfg.num_nodes, 0))
                encoding = self.encoder(adj, attrs)
                h = self.recurrence(encoding, z, float(t + 1), h)
        self.train()
        return probs
