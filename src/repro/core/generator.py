"""Attributed graph generator: MixBernoulli sampler + attribute decoder.

Implements §III-C's factorized decoder (Eq. 10):

    p(A_t, X_t | ·) = p(X_t | A_t, ·) · p(A_t | ·)

Structure first (mixture of Bernoullis over the adjacency rows,
Eq. 11), then attributes conditioned on the freshly generated topology
through one round of graph attention (Eq. 12).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autodiff import Tensor, apply, fused, functional as F
from repro.autodiff.fused import FUSED_ACTIVATIONS, PIECEWISE_LINEAR, pooled_mlp2
from repro.autodiff.ops import stable_sigmoid
from repro.autodiff.tensor import as_tensor
from repro.nn import GATLayer, MLP, Module
from repro.nn.linear import get_activation

_PROB_EPS = 1e-7


# ----------------------------------------------------------------------
# raw-NumPy inference kernels
#
# Generation never needs gradients, so the decode hot path runs the MLP
# heads directly on ndarrays: no Tensor allocation, no tape bookkeeping,
# and the (N, N) pairwise features are processed in row blocks so the
# full (K, N, N) tensor is never materialized.  Each block writes into
# one block-sized scratch set per call (:func:`_head_scratch`), and
# every activation is the training records' own
# (``fused._activate``), value for value as its autodiff twin.  The
# only numerical difference from the reference path is the
# reassociated first linear layer (see _first_layer_projection), which
# agrees to within a few ulp.
# ----------------------------------------------------------------------
#: the decode's leaky-ReLU slope (``F.leaky_relu``'s default)
_LEAKY_SLOPE = 0.2


def _decode_block_rows(n: int) -> int:
    """Decode row-block height: the pair budget of the training
    record, read at call time, so blocks stay cache-resident."""
    return max(fused._PAIR_BUDGET // max(n, 1), 1)


def _np_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _first_layer_projection(mlp: MLP, s: np.ndarray) -> np.ndarray:
    """``s @ W1`` — the only O(d) matmul of the pairwise heads.

    The heads evaluate ``mlp(s_i - s_j)`` for all pairs; the first
    layer is linear, so ``(s_i - s_j) @ W1 = P_i - P_j`` with
    ``P = s @ W1`` computed once per decode instead of per pair.  This
    drops the dominant O(N² · d · h) matmul to O(N · d · h).
    """
    return s @ mlp.layers[0].weight.data


def _head_scratch(mlp: MLP, proj: np.ndarray, rows: int):
    """One decode call's buffers for :func:`_pairwise_head_block`.

    ``proj`` tiled over ``rows`` source rows, then per layer a
    ``(rows·N, width)`` pre-activation buffer and one for its
    activation.  Every block of the call overwrites them, and the set
    is local to the call, so concurrent shards never share it.
    """
    n = proj.shape[0]
    widths = [layer.weight.data.shape[1] for layer in mlp.layers]
    return np.tile(proj, (rows, 1)), [
        (np.empty((rows * n, w)), np.empty((rows * n, w))) for w in widths
    ]


def _pairwise_head_block(
    mlp: MLP, proj: np.ndarray, lo: int, hi: int, scratch
) -> np.ndarray:
    """Head outputs for source rows ``[lo, hi)`` against all columns.

    ``proj`` is the :func:`_first_layer_projection` of the states and
    ``scratch`` a :func:`_head_scratch` of at least ``hi - lo`` rows.
    Returns a ``((hi - lo) * N, out)`` view into ``scratch``, valid
    until the next block; no autodiff nodes are created anywhere on
    this path.  The first layer is ``(P_i - P_j) + b₁``.
    """
    n = proj.shape[0]
    m = (hi - lo) * n
    tiled, buffers = scratch
    last = len(mlp.layers) - 1
    for i, (layer, (pre, out)) in enumerate(zip(mlp.layers, buffers)):
        pre = pre[:m]
        if i == 0:
            np.copyto(pre.reshape(hi - lo, n, -1), proj[lo:hi, None, :])
            np.subtract(pre, tiled[:m], out=pre)
        else:
            np.matmul(x, layer.weight.data, out=pre)
        if layer.bias is not None:
            np.add(pre, layer.bias.data, out=pre)
        act = mlp.out_activation if i == last else mlp.activation
        x = fused._activate(act, pre, out[:m], _LEAKY_SLOPE)
    return x


def sample_rows(
    head,
    proj: np.ndarray,
    alpha: np.ndarray,
    lo: int,
    hi: int,
    block: int,
    component_rng: np.random.Generator,
    edge_rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample adjacency rows ``[lo, hi)`` as CSR-ordered ``(src, dst)``.

    The one decode loop of :meth:`MixBernoulliSampler.sample_edges`
    (rows ``[0, N)``) and of ``repro.generation``'s shards.  ``alpha``
    holds the rows' normalized mixing weights; components are
    inverse-CDF draws on ``component_rng``, and each ``(block, N)`` row
    block draws its edge uniforms from ``edge_rng`` when reached —
    exactly the stream one ``(hi - lo, N)`` draw consumes, so a shard
    on a stream slice matches the monolithic decode bit for bit.  The
    blocks share one scratch set allocated here.
    """
    n = proj.shape[0]
    k = alpha.shape[1]
    u = component_rng.random((hi - lo, 1))
    components = (u > np.cumsum(alpha, axis=1)).sum(axis=1).clip(0, k - 1)
    rows = min(block, hi - lo)
    scratch = _head_scratch(head, proj, rows)
    edge_u = np.empty((rows, n))
    hit = np.empty((rows, n), bool)
    sigmoid_scratch = (np.empty((rows, n)), np.empty((rows, n), bool))
    srcs = []
    dsts = []
    for blo in range(lo, hi, block):
        bhi = min(blo + block, hi)
        b = bhi - blo
        edge_rng.random(out=edge_u[:b])
        feats = _pairwise_head_block(head, proj, blo, bhi, scratch).reshape(
            b, n, k
        )
        # pick each row's component first: the sigmoid is elementwise,
        # so it runs on (B, N) values instead of (B, N, K)
        row_theta = feats[np.arange(b), :, components[blo - lo:bhi - lo]]
        stable_sigmoid(
            row_theta, out=row_theta,
            scratch=(sigmoid_scratch[0][:b], sigmoid_scratch[1][:b]),
        )
        np.less(edge_u[:b], row_theta, out=hit[:b])
        diag = np.arange(blo, bhi)
        hit[diag - blo, diag] = False
        rows_hit, cols = np.nonzero(hit[:b])
        srcs.append(rows_hit.astype(np.int64) + blo)
        dsts.append(cols.astype(np.int64))
    return (
        np.concatenate(srcs) if srcs else np.zeros(0, np.int64),
        np.concatenate(dsts) if dsts else np.zeros(0, np.int64),
    )


def _fusable_head(mlp: MLP, activations) -> bool:
    """2-layer head with an identity output and a hidden activation in
    ``activations`` — the shape every fused pairwise record expects."""
    return (
        len(mlp.layers) == 2
        and mlp.out_activation == "identity"
        and mlp.activation in activations
    )


def _apply_head_op(name: str, mlp: MLP, s, **kwargs):
    """Apply fused op ``name`` over ``s`` and a 2-layer head's weights."""
    first, last = mlp.layers
    inputs = [s, first.weight]
    if first.bias is not None:
        inputs.append(first.bias)
    inputs.append(last.weight)
    if last.bias is not None:
        inputs.append(last.bias)
    return apply(
        name,
        tuple(inputs),
        activation=mlp.activation,
        has_b1=first.bias is not None,
        has_b2=last.bias is not None,
        **kwargs,
    )


class MixBernoulliSampler(Module):
    """Mixture-of-Bernoulli adjacency model (Eq. 11).

    For every source node ``i`` the adjacency row ``A_{i,·}`` is
    modelled as a K-component mixture: mixing weights ``α_{k,i}`` come
    from pooling pairwise features ``f_α(s_i - s_j)`` over all
    destinations ``j``, and per-component edge probabilities
    ``θ_{k,i,j} = σ(f_θ(s_i - s_j))``.  With K > 1 edges within a row
    are *not* independent — the mixture couples them — yet all rows can
    be computed in parallel, unlike fully autoregressive decoders
    (GRAN/GraphRNN).  ``repro.generation`` exploits exactly this row
    independence to shard the decode across workers with bit-identical
    output.
    """

    def __init__(
        self,
        state_dim: int,
        num_components: int = 3,
        hidden_dim: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        hidden_dim = hidden_dim or state_dim
        self.num_components = num_components
        self.f_alpha = MLP([state_dim, hidden_dim, num_components], rng=rng)
        self.f_theta = MLP([state_dim, hidden_dim, num_components], rng=rng)

    def calibrate_bias(self, density: float) -> None:
        """Initialize the θ-head bias to the observed edge density.

        Sigmoid heads start near p ≈ 0.5; real graphs are sparse, so
        starting every θ at the empirical density (via the logit of the
        final-layer bias) removes dozens of wasted epochs in which the
        model would only be learning "graphs are sparse".
        """
        density = float(np.clip(density, 1e-6, 1.0 - 1e-6))
        logit = float(np.log(density / (1.0 - density)))
        final = self.f_theta.layers[-1]
        if final.bias is not None:
            final.bias.data[:] = logit

    # ------------------------------------------------------------------
    def _pairwise(self, s: Tensor) -> Tensor:
        """All pairwise differences s_i - s_j, shape (N*N, d)."""
        n, d = s.shape
        diff = s.expand_dims(1) - s.expand_dims(0)  # (N, N, d)
        return diff.reshape(n * n, d)

    def _pairwise_feats(self, mlp: MLP, s) -> Tensor:
        """Head features ``mlp(s_i - s_j)`` as an ``(N, N, K)`` value.

        The standard 2-layer heads go through the fused ``pairwise_mlp2``
        op (first-layer projection trick: O(N·d·h) instead of
        O(N²·d·h)); other shapes fall back to the generic pairwise pass
        on primitives.
        """
        if _fusable_head(mlp, FUSED_ACTIVATIONS):
            return _apply_head_op("pairwise_mlp2", mlp, s)
        pair = self._pairwise(s)
        return mlp(pair).reshape(s.shape[0], s.shape[0], self.num_components)

    def _alpha(self, s) -> Tensor:
        """Mixing weights α (N, K).

        Piecewise-linear 2-layer heads pool ``Σ_j f_α(s_i - s_j)`` in
        closed form through the ``pooled_mlp2`` op (O(N log N · h),
        no pairwise array); other heads sum the pairwise features.
        """
        if _fusable_head(self.f_alpha, PIECEWISE_LINEAR):
            pooled = _apply_head_op("pooled_mlp2", self.f_alpha, s)
        else:
            pooled = self._pairwise_feats(self.f_alpha, s).sum(axis=1)
        return F.softmax(pooled, axis=-1)

    def distribution(self, s: Tensor) -> Tuple[Tensor, Tensor]:
        """Return (α, θ): mixing weights (N, K) and probs (N, N, K)."""
        alpha = self._alpha(s)
        theta = F.sigmoid(self._pairwise_feats(self.f_theta, s))
        return alpha, theta

    # ------------------------------------------------------------------
    def log_likelihood(self, s: Tensor, adjacency: np.ndarray) -> Tensor:
        """Mean per-node log p(A_{i,·} | s) under the mixture (scalar).

        Used (negated) as the structure reconstruction loss L_struc
        (Eq. 16–17); diagonal entries are excluded since self-loops are
        structurally impossible.
        """
        n = s.shape[0]
        if _fusable_head(self.f_theta, FUSED_ACTIVATIONS):
            # fused path: α pools in closed form, and the θ head →
            # σ → clip → Bernoulli log-lik → diagonal mask → pool over j
            # is one record that recomputes its row blocks in the VJP,
            # so no (N, N, ·) array stays on the tape
            alpha = self._alpha(s)
            row_loglik = _apply_head_op(
                "pairwise_mixbern_loglik",
                self.f_theta,
                s,
                adjacency=np.asarray(adjacency, dtype=np.float64),
                eps=_PROB_EPS,
            )
            mixed = F.logsumexp(F.log(alpha, eps=1e-12) + row_loglik, axis=1)
            return mixed.mean()
        alpha, theta = self.distribution(s)
        theta = F.clip(theta, _PROB_EPS, 1.0 - _PROB_EPS)
        a = np.asarray(adjacency, dtype=np.float64)[:, :, None]  # (N, N, 1)
        log_bern = a * F.log(theta) + (1.0 - a) * F.log(1.0 - theta)
        mask = (1.0 - np.eye(n))[:, :, None]
        row_loglik = (log_bern * mask).sum(axis=1)  # (N, K)
        mixed = F.logsumexp(F.log(alpha, eps=1e-12) + row_loglik, axis=1)  # (N,)
        return mixed.mean()

    def sampled_log_likelihood(
        self,
        s: Tensor,
        adjacency: np.ndarray,
        num_negatives: int,
        rng: np.random.Generator,
    ) -> Tensor:
        """Negative-sampled estimate of the structure log-likelihood.

        The estimator sums the log-likelihood of every positive edge
        plus Q uniformly sampled non-edges per node; each sampled term
        is importance-weighted by the number of non-edges it
        represents, so it is unbiased for the per-row Bernoulli sum
        (the mixture is then applied row-wise as usual).

        The paper's complexity analysis (§III-G) counts this loss as
        O(N·r + N·Q), but the cost is not that today: θ still comes from
        :meth:`distribution`, which evaluates the θ head over all N²
        pairs (and leaves ``(N, N, ·)`` state on the tape); only the
        reduction over destinations is sampled.  Evaluating θ at the sampled pairs alone
        is the open "truly sampled path" step of the ROADMAP's
        sub-quadratic structure likelihood item.
        """
        n = s.shape[0]
        if num_negatives < 1:
            raise ValueError("num_negatives must be >= 1")
        alpha, theta = self.distribution(s)
        theta = F.clip(theta, _PROB_EPS, 1.0 - _PROB_EPS)
        a = np.asarray(adjacency, dtype=np.float64)
        log_theta = F.log(theta)
        log_one_minus = F.log(1.0 - theta)
        # positive part: exact sum over existing edges
        pos_mask = a[:, :, None]
        diag_mask = (1.0 - np.eye(n))[:, :, None]
        pos_term = (log_theta * pos_mask * diag_mask).sum(axis=1)  # (N, K)
        # negative part: Q uniform samples per row over the non-edges,
        # scaled by the count of non-edges in that row
        neg_counts = (n - 1) - a.sum(axis=1)  # (N,)
        cols = rng.integers(0, n, size=(n, num_negatives))
        rows = np.repeat(np.arange(n)[:, None], num_negatives, axis=1)
        valid = (cols != rows) & (a[rows, cols] == 0)
        weights = np.where(
            valid.sum(axis=1, keepdims=True) > 0,
            valid / np.maximum(valid.sum(axis=1, keepdims=True), 1),
            0.0,
        ) * neg_counts[:, None]
        # gather log(1-θ) at the sampled (row, col) pairs: (N, Q, K)
        gathered = log_one_minus[rows.ravel(), cols.ravel()].reshape(
            n, num_negatives, self.num_components
        )
        neg_term = (gathered * weights[:, :, None]).sum(axis=1)  # (N, K)
        row_loglik = pos_term + neg_term
        mixed = F.logsumexp(F.log(alpha, eps=1e-12) + row_loglik, axis=1)
        return mixed.mean()

    # ------------------------------------------------------------------
    # fused no-grad decode (generation hot path)
    # ------------------------------------------------------------------
    def _pooled_alpha_features_np(
        self, proj: np.ndarray
    ) -> Optional[np.ndarray]:
        """Closed-form ``Σ_j f_α(s_i - s_j)`` in O(N log N · h).

        The same :func:`~repro.autodiff.fused.pooled_mlp2` kernel the
        training tape records, run on raw arrays.  Returns ``None``
        when the head's shape/activation doesn't admit the shortcut
        (caller falls back to the blocked pairwise pass).
        """
        mlp = self.f_alpha
        if not _fusable_head(mlp, PIECEWISE_LINEAR):
            return None
        first, last = mlp.layers
        feats, _ = pooled_mlp2(
            proj,
            None if first.bias is None else first.bias.data,
            last.weight.data,
            None if last.bias is None else last.bias.data,
            mlp.activation,
        )
        return feats

    def _mixture_weights_np(
        self, s_np: np.ndarray, block: int
    ) -> np.ndarray:
        """Row mixing weights α (N, K): closed-form pooling when the
        head admits it, otherwise a row-blocked pairwise pass."""
        n = s_np.shape[0]
        proj = _first_layer_projection(self.f_alpha, s_np)
        alpha_feats = self._pooled_alpha_features_np(proj)
        if alpha_feats is None:
            alpha_feats = np.zeros((n, self.num_components))
            scratch = _head_scratch(self.f_alpha, proj, min(block, n))
            for lo in range(0, n, block):
                hi = min(lo + block, n)
                feats = _pairwise_head_block(
                    self.f_alpha, proj, lo, hi, scratch
                )
                alpha_feats[lo:hi] = feats.reshape(
                    hi - lo, n, self.num_components
                ).sum(axis=1)  # pool over j
        return _np_softmax(alpha_feats, axis=-1)

    def edge_probabilities(self, s: Tensor) -> np.ndarray:
        """Marginal edge probability matrix Ã under the mixture.

        Row-blocked no-grad kernel; never materializes the full
        ``(N, N, K)`` θ tensor.
        """
        s_np = np.asarray(s.data if isinstance(s, Tensor) else s, dtype=np.float64)
        n = s_np.shape[0]
        block = _decode_block_rows(n)
        alpha = self._mixture_weights_np(s_np, block)
        proj = _first_layer_projection(self.f_theta, s_np)
        probs = np.zeros((n, n))
        scratch = _head_scratch(self.f_theta, proj, min(block, n))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            theta = stable_sigmoid(
                _pairwise_head_block(self.f_theta, proj, lo, hi, scratch)
            ).reshape(hi - lo, n, self.num_components)
            probs[lo:hi] = (theta * alpha[lo:hi, None, :]).sum(axis=2)
        np.fill_diagonal(probs, 0.0)
        return probs

    def sample_edges(
        self, s: Tensor, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw one adjacency sample as ``(src, dst)`` edge columns.

        Fused decode: :func:`prepare_decode`, then :func:`sample_rows`
        over rows ``[0, N)`` on ``rng`` — only the chosen component's
        probabilities are ever used, and no autodiff nodes are created.
        Edges stream out as int columns in CSR order, ready for a
        :class:`~repro.graph.store.TemporalEdgeStoreBuilder`; only the
        per-block ``(B, N)`` working set is dense.  RNG consumption
        (``N`` component uniforms, then ``N²`` edge uniforms) matches
        :meth:`_reference_sample` exactly; θ agrees with the reference
        to within a few ulp (reassociated first layer), so both paths
        produce the same graphs from identical generator states except
        with vanishing probability.  Because each float64 uniform
        consumes exactly one PCG64 step, rows ``[lo, hi)`` own a known
        contiguous window of the stream — the invariant
        ``repro.generation`` slices to decode shards bit-identically.
        """
        alpha, proj, block = prepare_decode(self, s)
        return sample_rows(
            self.f_theta, proj, alpha, 0, proj.shape[0], block, rng, rng
        )

    # ------------------------------------------------------------------
    # reference decode (parity-test ground truth)
    # ------------------------------------------------------------------
    def _reference_distribution(self, s: Tensor) -> Tuple[Tensor, Tensor]:
        """(α, θ) by the explicit all-pairs composition: both heads
        evaluated on every ``s_i - s_j`` row, α pooled by a plain sum."""
        n = s.shape[0]
        pair = self._pairwise(s)
        alpha_feats = self.f_alpha(pair).reshape(n, n, self.num_components)
        alpha = F.softmax(alpha_feats.sum(axis=1), axis=-1)  # pool over j
        theta = F.sigmoid(self.f_theta(pair)).reshape(n, n, self.num_components)
        return alpha, theta

    def _reference_edge_probabilities(self, s: Tensor) -> np.ndarray:
        """Dense-tensor marginal Ã (reference)."""
        alpha, theta = self._reference_distribution(as_tensor(s))
        probs = (theta.data * alpha.data[:, None, :]).sum(axis=2)
        np.fill_diagonal(probs, 0.0)
        return probs

    def _reference_sample(self, s: Tensor, rng: np.random.Generator) -> np.ndarray:
        """Dense-tensor adjacency sampling (reference)."""
        s = as_tensor(s)
        n = s.shape[0]
        alpha, theta = self._reference_distribution(s)
        alpha_np = alpha.data
        theta_np = theta.data
        alpha_np = alpha_np / alpha_np.sum(axis=1, keepdims=True)
        cdf = np.cumsum(alpha_np, axis=1)
        u = rng.random((n, 1))
        components = (u > cdf).sum(axis=1).clip(0, self.num_components - 1)
        row_theta = theta_np[np.arange(n), :, components]  # (N, N)
        adj = (rng.random((n, n)) < row_theta).astype(np.float64)
        np.fill_diagonal(adj, 0.0)
        return adj


def prepare_decode(
    sampler: MixBernoulliSampler, s
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The decode's row-independent prologue: ``(alpha, proj, block)``.

    ``alpha`` is the normalized ``(N, K)`` mixing weights (closed-form
    O(N log N) pooling when the head admits it); ``proj`` the ``(N, h)``
    θ-head first-layer projection — the only O(N·d·h) matmul of the
    decode; ``block`` the row-block height (:func:`_decode_block_rows`).
    Computed once per decode (once for all shards) and shared by every
    :func:`sample_rows` call.
    """
    s_np = np.asarray(s.data if isinstance(s, Tensor) else s, dtype=np.float64)
    block = _decode_block_rows(s_np.shape[0])
    alpha = sampler._mixture_weights_np(s_np, block)
    alpha = alpha / alpha.sum(axis=1, keepdims=True)  # float drift
    return alpha, _first_layer_projection(sampler.f_theta, s_np), block


class AttributeDecoder(Module):
    """GAT + MLP attribute decoder (Eq. 12).

    Runs one attentive message-passing round over the *generated*
    adjacency so attributes condition on the fresh topology, then maps
    node states to the F attribute values.
    """

    def __init__(
        self,
        state_dim: int,
        num_attributes: int,
        hidden_dim: Optional[int] = None,
        activation: str = "identity",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        hidden_dim = hidden_dim or state_dim
        self.gat = GATLayer(state_dim, hidden_dim, rng=rng)
        self.mlp = MLP([hidden_dim, hidden_dim, num_attributes], rng=rng)
        self._activation = get_activation(activation)
        self.activation = activation

    def forward(self, s: Tensor, adjacency: np.ndarray) -> Tensor:
        """Decode attributes from node states ``s`` and adjacency (Eq. 12)."""
        h = self.gat(s, adjacency)
        return self._activation(self.mlp(h))
