"""Conditional generation: continue an observed graph sequence.

The paper's Algorithm 1 generates from scratch (H_0 = 0).  A natural
extension — and the operation a DBMS tester actually wants for
"what will next quarter's workload look like?" — is to *condition* the
rollout on an observed prefix: encode the prefix with the posterior
machinery (teacher-forced, exactly as in training) to obtain H_T, then
switch to prior sampling and free-run for the requested horizon.  The
free-running part is ``VRDAG._rollout``, the single step loop
:meth:`VRDAG.generate` runs too, started at step ``T``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import Tensor, no_grad
from repro.core.model import VRDAG
from repro.graph import DynamicAttributedGraph


def encode_prefix(model: VRDAG, prefix: DynamicAttributedGraph) -> Tensor:
    """Run the recurrence over an observed prefix; returns H_T.

    Uses posterior means (no sampling) for a deterministic encoding.
    The prefix must be in the model's *raw* attribute space; it is
    normalized internally with the model's fitted statistics.
    """
    cfg = model.config
    if prefix.num_nodes != cfg.num_nodes:
        raise ValueError(
            f"prefix has {prefix.num_nodes} nodes, model expects {cfg.num_nodes}"
        )
    if prefix.num_attributes != cfg.num_attributes:
        raise ValueError(
            f"prefix has {prefix.num_attributes} attributes, model expects "
            f"{cfg.num_attributes}"
        )
    with no_grad():
        h = model.recurrence.initial_state(cfg.num_nodes)
        for t, snapshot in enumerate(model.normalize(prefix)):
            encoding = model.encoder(snapshot.adjacency, snapshot.attributes)
            z = model.posterior(encoding, h).mean()
            h = model.recurrence(encoding, z, float(t), h)
    return h


def continue_sequence(
    model: VRDAG,
    prefix: DynamicAttributedGraph,
    horizon: int,
    seed: Optional[int] = None,
) -> DynamicAttributedGraph:
    """Generate ``horizon`` future snapshots conditioned on ``prefix``.

    Returns only the generated continuation (length ``horizon``,
    store-backed); the caller can concatenate with the prefix if
    desired.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(
        seed if seed is not None else model.config.seed + 777
    )
    h = encode_prefix(model, prefix)
    return model._rollout(h, prefix.num_timesteps, horizon, rng)
