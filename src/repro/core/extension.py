"""§III-H extension: flexible node addition and deletion.

The base VRDAG keeps the node universe fixed.  This wrapper adds the
paper's two proposed mechanisms on top of a trained model:

* **deletion** — track, per node, the number of consecutive generated
  snapshots in which it is isolated; once the count reaches ``T_del``
  the node's hidden state is frozen out of generation (its adjacency
  row/column and attributes are zeroed in subsequent snapshots);
* **addition** — estimate the number of newly arriving nodes per step
  from the sequence's empirical arrival process, and initialize their
  hidden states from a parameterized Gaussian conditioned on the mean
  hidden graph state ``h̄_t`` and the time embedding.

The wrapper keeps the full (max-size) node universe internally and
exposes the active mask, so downstream metrics can treat inactive nodes
as absent.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autodiff import Tensor, functional as F, no_grad
from repro.core.model import VRDAG
from repro.graph import DynamicAttributedGraph, TemporalEdgeStoreBuilder
from repro.nn import Linear, Module


class NodeDynamicsWrapper(Module):
    """Node addition/deletion layer over a trained :class:`VRDAG`.

    Parameters
    ----------
    model:
        A trained VRDAG (its config fixes the *maximum* node count).
    deletion_threshold:
        ``T_del`` — consecutive isolated steps before a node is removed.
    arrival_rate:
        Expected number of node additions per timestep (Poisson);
        estimate it from data with :meth:`estimate_arrival_rate`.
    """

    def __init__(
        self,
        model: VRDAG,
        deletion_threshold: int = 3,
        arrival_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if deletion_threshold < 1:
            raise ValueError("deletion_threshold must be >= 1")
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be >= 0")
        self.model = model
        self.deletion_threshold = deletion_threshold
        self.arrival_rate = arrival_rate
        self._rng = rng or np.random.default_rng(model.config.seed + 777)
        d_h = model.config.hidden_dim
        d_t = model.config.time_dim
        # p_ω: initial hidden state sampler for added nodes, conditioned
        # on [h̄_t || f_T(t)] (§III-H)
        init_rng = np.random.default_rng(model.config.seed + 778)
        self.init_mu = Linear(d_h + d_t, d_h, rng=init_rng)
        self.init_log_sigma = Linear(d_h + d_t, d_h, rng=init_rng)

    # ------------------------------------------------------------------
    def fit(self, graph: DynamicAttributedGraph) -> "NodeDynamicsWrapper":
        """Fit ``p_ω`` and the arrival rate from an observed sequence.

        §III-H proposes *training* the added-node state sampler; an
        untrained ``p_ω`` hands the decoder out-of-distribution hidden
        states and the generated density explodes.  This method
        teacher-forces the trained model's encoder/recurrence over the
        observed graph, records each node's hidden state at the step it
        first becomes active, and solves a ridge regression from
        ``[h̄_t || f_T(t)]`` to those states; the per-dimension residual
        spread becomes σ_ω.  The Poisson arrival rate is estimated from
        the same pass.
        """
        cfg = self.model.config
        normalized = self.model.normalize(graph)
        contexts: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        seen = graph[0].degrees() > 0
        with no_grad():
            h = self.model.recurrence.initial_state(cfg.num_nodes)
            for t in range(graph.num_timesteps):
                if t >= 1:
                    active = graph[t].degrees() > 0
                    new = active & ~seen
                    if new.any():
                        h_bar = h.data.mean(axis=0)
                        tv = self.model.recurrence.time2vec(float(t)).data
                        ctx = np.concatenate([h_bar, tv])
                        for v in np.nonzero(new)[0]:
                            contexts.append(ctx)
                            targets.append(h.data[v].copy())
                    seen |= active
                snap = normalized[t]
                encoding = self.model.encoder(snap.adjacency, snap.attributes)
                z = self.model.posterior(encoding, h).mean()
                h = self.model.recurrence(encoding, z, float(t + 1), h)
        self.arrival_rate = self.estimate_arrival_rate(graph)
        if contexts:
            self._fit_init_sampler(np.stack(contexts), np.stack(targets))
        return self

    def _fit_init_sampler(
        self, contexts: np.ndarray, targets: np.ndarray, ridge: float = 1e-2
    ) -> None:
        """Closed-form ridge fit of ``init_mu``; residual std -> σ_ω."""
        m = contexts.shape[0]
        x = np.concatenate([contexts, np.ones((m, 1))], axis=1)
        gram = x.T @ x + ridge * np.eye(x.shape[1])
        coef = np.linalg.solve(gram, x.T @ targets)
        self.init_mu.weight.data = coef[:-1]
        self.init_mu.bias.data = coef[-1]
        residual = targets - x @ coef
        sigma = np.maximum(residual.std(axis=0), 1e-3)
        self.init_log_sigma.weight.data = np.zeros_like(
            self.init_log_sigma.weight.data
        )
        self.init_log_sigma.bias.data = np.log(sigma)

    # ------------------------------------------------------------------
    @staticmethod
    def estimate_arrival_rate(graph: DynamicAttributedGraph) -> float:
        """Mean number of first-activations per step in an observed graph."""
        n, t_len = graph.num_nodes, graph.num_timesteps
        seen = np.zeros(n, dtype=bool)
        arrivals = []
        for t in range(t_len):
            active = graph[t].degrees() > 0
            new = active & ~seen
            arrivals.append(int(new.sum()))
            seen |= active
        if len(arrivals) <= 1:
            return 0.0
        return float(np.mean(arrivals[1:]))  # step-0 activations are the seed

    # ------------------------------------------------------------------
    def generate(
        self,
        num_timesteps: int,
        initial_active: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Tuple[DynamicAttributedGraph, np.ndarray]:
        """Roll out generation with node churn.

        Returns the generated graph (full node universe) and an
        ``(T, N)`` boolean activity mask.
        """
        cfg = self.model.config
        n = cfg.num_nodes
        rng = np.random.default_rng(seed if seed is not None else cfg.seed + 999)
        active = np.zeros(n, dtype=bool)
        k0 = n if initial_active is None else min(initial_active, n)
        active[:k0] = True
        isolation = np.zeros(n, dtype=int)

        builder = TemporalEdgeStoreBuilder(n, cfg.num_attributes)
        adj = np.zeros((n, n))
        masks = np.zeros((num_timesteps, n), dtype=bool)
        self.model.eval()
        with no_grad():
            h = self.model.recurrence.initial_state(n)
            for t in range(num_timesteps):
                # --- node addition ---------------------------------------
                if self.arrival_rate > 0:
                    n_add = int(rng.poisson(self.arrival_rate))
                    inactive = np.nonzero(~active)[0]
                    joiners = inactive[:n_add]
                    if joiners.size:
                        h_bar = h.data[active].mean(axis=0) if active.any() else (
                            np.zeros(cfg.hidden_dim)
                        )
                        tv = self.model.recurrence.time2vec(float(t)).data
                        ctx = Tensor(
                            np.concatenate([h_bar, tv])[None, :]
                        )
                        mu = self.init_mu(ctx).data[0]
                        sigma = np.exp(
                            np.clip(self.init_log_sigma(ctx).data[0], -6, 6)
                        )
                        h_data = h.data.copy()
                        for j in joiners:
                            h_data[j] = mu + sigma * rng.standard_normal(
                                cfg.hidden_dim
                            )
                            active[j] = True
                            isolation[j] = 0
                        h = Tensor(h_data)
                # --- snapshot generation over the full universe ----------
                z = self.model.prior(h).sample(rng)
                s = F.concat([z, h], axis=1)
                src, dst = self.model.structure_sampler.sample_edges(s, rng)
                # drop edges touching inactive nodes
                keep = active[src] & active[dst]
                src, dst = src[keep], dst[keep]
                adj[:] = 0.0
                adj[src, dst] = 1.0
                if self.model.attribute_decoder is not None:
                    attrs = self.model.attribute_decoder(s, adj).data.copy()
                    attrs[~active] = 0.0
                else:
                    attrs = np.zeros((n, 0))
                builder.add_step(
                    src, dst, self.model._denormalize_attrs(attrs),
                    canonical=True,
                )
                masks[t] = active
                # --- node deletion bookkeeping ---------------------------
                deg = np.bincount(src, minlength=n) + np.bincount(
                    dst, minlength=n
                )
                isolated = active & (deg == 0)
                isolation[isolated] += 1
                isolation[active & (deg > 0)] = 0
                expired = isolation >= self.deletion_threshold
                if expired.any():
                    active[expired] = False
                    h_data = h.data.copy()
                    h_data[expired] = 0.0
                    h = Tensor(h_data)
                # --- recurrence update ------------------------------------
                encoding = self.model.encoder(adj, attrs)
                h = self.model.recurrence(encoding, z, float(t + 1), h)
        self.model.train()
        return builder.build().to_graph(), masks
