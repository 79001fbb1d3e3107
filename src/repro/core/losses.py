"""VRDAG loss terms (§III-E, Eq. 14–18).

Every term is built from :mod:`repro.autodiff.functional` ops and
Tensor/Variable arithmetic, all dispatched through
:func:`repro.autodiff.tape.apply`: inside a training
:class:`~repro.autodiff.tape.Tape` the terms record flat tape entries,
outside one they evaluate to constant Tensors.  Constant inputs
(``x_true``, adjacency, masks) stay plain arrays or constant Tensors.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import Tensor, functional as F
from repro.autodiff.tensor import as_tensor
from repro.core.latent import GaussianParams


def gaussian_kl(q: GaussianParams, p: GaussianParams) -> Tensor:
    """Closed-form KL(q || p) between diagonal Gaussians (Eq. 15).

    .. math::
        KL = \\sum \\big( \\log \\frac{\\sigma_p}{\\sigma_q}
             + \\frac{\\sigma_q^2 + (\\mu_q - \\mu_p)^2}{2 \\sigma_p^2}
             - \\tfrac{1}{2} \\big)

    Returned as the mean over nodes (sum over latent dims).
    """
    var_p = p.sigma * p.sigma
    term = (
        F.log(p.sigma, eps=1e-12)
        - F.log(q.sigma, eps=1e-12)
        + (q.sigma * q.sigma + (q.mu - p.mu) ** 2) / (2.0 * var_p)
        - 0.5
    )
    return term.sum(axis=1).mean()


def bce_structure_loss(edge_probs: Tensor, adjacency: np.ndarray) -> Tensor:
    """Eq. 17 dense BCE between the target adjacency and probabilities.

    Provided for completeness / ablations; the model's default structure
    loss is the exact mixture log-likelihood
    (:meth:`MixBernoulliSampler.log_likelihood`), which reduces to this
    BCE when K = 1.  Diagonal excluded; normalized by 1/|V|.
    """
    n = adjacency.shape[0]
    a = np.asarray(adjacency, dtype=np.float64)
    p = F.clip(edge_probs, 1e-7, 1.0 - 1e-7)
    ll = a * F.log(p) + (1.0 - a) * F.log(1.0 - p)
    mask = 1.0 - np.eye(n)
    return -(ll * mask).sum() / float(n)


def sce_attribute_loss(
    x_true: np.ndarray, x_pred: Tensor, alpha: float = 2.0
) -> Tensor:
    """Scaled cosine error (Eq. 18): mean_i (1 - cos(x_i, x̃_i))^α.

    Insensitive to vector norm, adaptively down-weights easy samples
    for α > 1.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1 (Eq. 18)")
    x = as_tensor(np.asarray(x_true, dtype=np.float64))
    dot = (x * x_pred).sum(axis=1)
    denom = F.norm(x, axis=1) * F.norm(x_pred, axis=1) + 1e-12
    cos = dot / denom
    err = F.clip(1.0 - cos, 0.0, 2.0)
    return (err**alpha).mean()


def mse_attribute_loss(x_true: np.ndarray, x_pred: Tensor) -> Tensor:
    """Plain MSE attribute reconstruction (the ablation alternative)."""
    x = as_tensor(np.asarray(x_true, dtype=np.float64))
    return ((x_pred - x) ** 2).mean()
