"""Hyperparameter configuration for VRDAG."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VRDAGConfig:
    """All VRDAG hyperparameters with paper-style defaults.

    Attributes
    ----------
    num_nodes:
        Node universe size N (fixed across the sequence, §II-A).
    num_attributes:
        Attribute dimensionality F (0 for structure-only graphs).
    hidden_dim:
        d_h — GRU hidden state width per node.
    latent_dim:
        d_z — latent variable width per node.
    encode_dim:
        d_ε — bi-flow encoder output width.
    time_dim:
        d_T — Time2Vec width (Eq. 13).
    gnn_layers:
        L — number of bi-flow message-passing hops (Eq. 5).
    mlp_layers:
        L_m — depth of the MLPs inside each GIN flow.
    mixture_components:
        K — MixBernoulli mixture size (Eq. 11); K=1 reduces to
        independent Bernoulli edges (ablation knob).
    sce_alpha:
        α ≥ 1 — scaled-cosine-error sharpening exponent (Eq. 18).
    kl_weight, struct_weight, attr_weight:
        Loss term weights in the step-wise ELBO (Eq. 14).
    bidirectional:
        Ablation switch: False collapses the bi-flow encoder to a
        single (out-flow) direction.
    attr_loss:
        "sce" (paper) or "mse" (ablation baseline).
    attr_mse_weight:
        Weight of a small MSE anchor added to the SCE loss.  SCE
        (Eq. 18) is scale-invariant, so without an anchor the decoder's
        output norms are unconstrained; the anchor pins them (the paper
        works on normalized attributes, which has the same effect).
        Set to 0 for the strictly-pure Eq. 18 objective.
    attr_activation:
        Final nonlinearity of the attribute decoder ("identity",
        "relu", "sigmoid", or "tanh").
    seed:
        Parameter initialization / sampling seed.
    """

    num_nodes: int
    num_attributes: int = 0
    hidden_dim: int = 32
    latent_dim: int = 16
    encode_dim: int = 32
    time_dim: int = 8
    gnn_layers: int = 2
    mlp_layers: int = 2
    mixture_components: int = 3
    sce_alpha: float = 2.0
    kl_weight: float = 1.0
    struct_weight: float = 1.0
    attr_weight: float = 1.0
    bidirectional: bool = True
    attr_loss: str = "sce"
    attr_mse_weight: float = 1.0
    #: Q — non-edges sampled per node for the structure loss (§III-G's
    #: estimator); 0 uses the exact likelihood.  The paper counts the
    #: sampled loss as O(N·r + N·Q), but θ is still evaluated over all
    #: N² pairs today, so only the reduction is sampled (see
    #: MixBernoulliSampler.sampled_log_likelihood and the ROADMAP's
    #: "truly sampled path" step)
    struct_negative_samples: int = 0
    attr_activation: str = "identity"
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent hyperparameters."""
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be >= 2")
        if self.num_attributes < 0:
            raise ValueError("num_attributes must be >= 0")
        if min(self.hidden_dim, self.latent_dim, self.encode_dim, self.time_dim) < 1:
            raise ValueError("all dimensions must be positive")
        if self.gnn_layers < 1 or self.mlp_layers < 1:
            raise ValueError("layer counts must be >= 1")
        if self.mixture_components < 1:
            raise ValueError("mixture_components must be >= 1")
        if self.sce_alpha < 1.0:
            raise ValueError("sce_alpha must be >= 1 (Eq. 18)")
        if self.attr_loss not in ("sce", "mse"):
            raise ValueError("attr_loss must be 'sce' or 'mse'")
        if self.struct_negative_samples < 0:
            raise ValueError("struct_negative_samples must be >= 0")
