"""Fused composite ops: one tape record per encoder/decoder motif.

The VRDAG training step repeats a handful of motifs thousands of times
per epoch — affine+activation layers, the GRU cell update, GAT
attention, and the MixBernoulli pairwise heads.  Composed from
primitives each motif would cost 5–40 small records; here each is a
single :class:`~repro.autodiff.ops.OpSpec` with a hand-written VJP, so
both sweeps are a few large NumPy calls.  The nn modules call these
ops unconditionally: on a tape they record, otherwise their forward
kernel is the inference path.

Registered ops
--------------
``linear_act``
    ``act(x @ W [+ b])`` — every Linear / MLP layer.
``gru_cell``
    Full GRU step (r/z/n gates + convex combination), 11 inputs.
``gat_attention``
    Masked attention scores → softmax → renormalize → aggregate → ELU
    (everything in :class:`repro.nn.attention.GATLayer` after the input
    projection).
``pairwise_mlp2``
    ``mlp(s_i - s_j)`` for all pairs through a 2-layer MLP, using the
    first-layer projection trick ``(s_i - s_j) @ W1 = P_i - P_j`` (same
    reassociation as the no-grad decode kernels in
    ``core/generator.py``), so the dominant matmul is O(N·d·h) instead
    of O(N²·d·h).
``pooled_mlp2``
    ``Σ_j mlp(s_i - s_j)`` for a 2-layer head with a piecewise-linear
    hidden activation, in closed form: O(N log N · h) by sorted prefix
    sums, O(N·h) residuals (the MixBernoulli α pooling).
``pairwise_mixbern_loglik``
    the θ head ``σ(mlp(s_i - s_j))`` → clip → Bernoulli log-likelihood
    → diagonal mask → pool over destinations, producing the per-row
    per-component ``(N, K)`` log-likelihood of Eq. 11.  It keeps only
    the ``(N, h)`` projections and recomputes each row block in the
    VJP, so no ``(N, N, ·)`` array outlives its block.

Gradient formulas are those of the equivalent composition of
primitives; the pairwise records reassociate the first layer (and
``pooled_mlp2`` the pooling sum), so they agree with that composition
to a few ulp rather than bit-exactly.  ``tests/autodiff/
test_golden_gradients.py`` pins them against gradients recorded from
the primitive composition and against finite differences.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autodiff.ops import register_op, stable_sigmoid, unbroadcast

__all__ = ["FUSED_ACTIVATIONS", "PIECEWISE_LINEAR", "pooled_mlp2"]

#: activations the fused kernels support (same names as nn.linear)
FUSED_ACTIVATIONS = (
    "identity",
    "relu",
    "leaky_relu",
    "tanh",
    "sigmoid",
    "elu",
    "softplus",
)


def _act_with_local(
    name: str, pre: np.ndarray, slope: float
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Activation value + local derivative (``None`` marks identity)."""
    if name == "identity":
        return pre, None
    if name == "relu":
        return np.maximum(pre, 0.0), (pre > 0).astype(np.float64)
    if name == "leaky_relu":
        mask = np.where(pre > 0, 1.0, slope)
        return pre * mask, mask
    if name == "tanh":
        out = np.tanh(pre)
        return out, 1.0 - out**2
    if name == "sigmoid":
        out = stable_sigmoid(pre)
        return out, out * (1.0 - out)
    if name == "elu":
        neg = np.exp(np.clip(pre, None, 0)) - 1.0
        out = np.where(pre > 0, pre, neg)
        return out, np.where(pre > 0, 1.0, neg + 1.0)
    if name == "softplus":
        out = np.logaddexp(0.0, pre)
        return out, 1.0 / (1.0 + np.exp(-np.clip(pre, -60, 60)))
    raise KeyError(
        f"unsupported fused activation {name!r}; known: {FUSED_ACTIVATIONS}"
    )


def _activate(
    name: str, pre: np.ndarray, out: np.ndarray, slope: float
) -> np.ndarray:
    """The value of :func:`_act_with_local` on float64 ``pre``, written
    into ``out``.

    ``out`` has ``pre``'s shape and is not ``pre`` itself; identity
    returns ``pre``.  Leaky heads with ``slope <= 1`` take
    ``max(x, slope·x)``, which selects the masked form's products for
    every finite ``x``.  The row-blocked pairwise loops (the θ record
    below and the no-grad decode in ``repro.core.generator``) run every
    head activation through here, into their per-call scratch.
    """
    if name == "identity":
        return pre
    if name == "relu":
        return np.maximum(pre, 0.0, out=out)
    if name == "leaky_relu":
        if slope <= 1.0:
            return np.maximum(pre, np.multiply(pre, slope, out=out), out=out)
        return np.multiply(pre, np.where(pre > 0, 1.0, slope), out=out)
    if name == "tanh":
        return np.tanh(pre, out=out)
    if name == "sigmoid":
        return stable_sigmoid(pre, out=out)
    if name == "elu":
        np.exp(np.clip(pre, None, 0, out=out), out=out)
        np.subtract(out, 1.0, out=out)
        np.copyto(out, pre, where=pre > 0)
        return out
    if name == "softplus":
        return np.logaddexp(0.0, pre, out=out)
    raise KeyError(
        f"unsupported fused activation {name!r}; known: {FUSED_ACTIVATIONS}"
    )


# ----------------------------------------------------------------------
# linear_act: act(x @ W [+ b])
# ----------------------------------------------------------------------
def _linear_act_forward(x, w, b=None, *, activation="identity", negative_slope=0.2):
    pre = x @ w
    if b is not None:
        pre = pre + b
    out, local = _act_with_local(activation, pre, negative_slope)
    return out, local


def _linear_act_vjp(g, inputs, local, *, activation="identity", negative_slope=0.2):
    x, w = inputs[0], inputs[1]
    dpre = g if local is None else g * local
    dx = dpre @ np.swapaxes(w, -1, -2)
    dw = np.swapaxes(x, -1, -2) @ dpre
    if len(inputs) == 2:
        return dx, dw
    db = unbroadcast(dpre, inputs[2].shape)
    return dx, dw, db


register_op("linear_act", _linear_act_forward, _linear_act_vjp)


# ----------------------------------------------------------------------
# gru_cell: full GRU step (gru.py forward, one record)
# ----------------------------------------------------------------------
def _gru_cell_forward(x, h, w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, w_hn, b_n):
    r = stable_sigmoid(x @ w_xr + h @ w_hr + b_r)
    z = stable_sigmoid(x @ w_xz + h @ w_hz + b_z)
    rh = r * h
    n = np.tanh(x @ w_xn + rh @ w_hn + b_n)
    out = (1.0 - z) * n + z * h
    return out, (r, z, n, rh)


def _gru_cell_vjp(g, inputs, res):
    x, h, w_xr, w_hr, _, w_xz, w_hz, _, w_xn, w_hn, _ = inputs
    r, z, n, rh = res

    dz = g * (h - n)
    dn = g * (1.0 - z)
    dh = g * z

    dpre_n = dn * (1.0 - n**2)
    db_n = dpre_n.sum(axis=0)
    dw_xn = x.T @ dpre_n
    dx = dpre_n @ w_xn.T
    dw_hn = rh.T @ dpre_n
    drh = dpre_n @ w_hn.T
    dr = drh * h
    dh = dh + drh * r

    dpre_r = dr * r * (1.0 - r)
    db_r = dpre_r.sum(axis=0)
    dw_xr = x.T @ dpre_r
    dw_hr = h.T @ dpre_r
    dx = dx + dpre_r @ w_xr.T
    dh = dh + dpre_r @ w_hr.T

    dpre_z = dz * z * (1.0 - z)
    db_z = dpre_z.sum(axis=0)
    dw_xz = x.T @ dpre_z
    dw_hz = h.T @ dpre_z
    dx = dx + dpre_z @ w_xz.T
    dh = dh + dpre_z @ w_hz.T

    return (dx, dh, dw_xr, dw_hr, db_r, dw_xz, dw_hz, db_z, dw_xn, dw_hn, db_n)


register_op("gru_cell", _gru_cell_forward, _gru_cell_vjp)


# ----------------------------------------------------------------------
# gat_attention: everything in GATLayer.forward after the projection
# ----------------------------------------------------------------------
def _gat_attention_forward(wh, a_src, a_dst, *, mask, negative_slope):
    src = wh @ a_src                       # (N, 1)
    dst = wh @ a_dst                       # (N, 1)
    pre = src + dst.T                      # (N, N)
    lmask = np.where(pre > 0, 1.0, negative_slope)
    scores = pre * lmask
    neg_inf = np.where(mask > 0, 0.0, -1e9)
    sm_in = scores + neg_inf
    shifted = sm_in - sm_in.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    soft = e / e.sum(axis=1, keepdims=True)
    u = soft * mask
    ssum = u.sum(axis=1, keepdims=True) + 1e-12
    al = u / ssum
    pre_out = al @ wh
    neg = np.exp(np.clip(pre_out, None, 0)) - 1.0
    out = np.where(pre_out > 0, pre_out, neg)
    elu_local = np.where(pre_out > 0, 1.0, neg + 1.0)
    return out, (lmask, soft, u, ssum, al, elu_local)


def _gat_attention_vjp(g, inputs, res, *, mask, negative_slope):
    wh, a_src, a_dst = inputs
    lmask, soft, u, ssum, al, elu_local = res

    dpre_out = g * elu_local
    dal = dpre_out @ wh.T
    dwh = al.T @ dpre_out
    # al = u / ssum with ssum = sum_j u + 1e-12
    du = dal / ssum
    dssum = (-(dal * u) / ssum**2).sum(axis=1, keepdims=True)
    du = du + dssum
    dsoft = du * mask
    # softmax over axis=1
    dsm = soft * (dsoft - (dsoft * soft).sum(axis=1, keepdims=True))
    dpre = dsm * lmask
    dsrc = dpre.sum(axis=1, keepdims=True)      # (N, 1)
    ddst = dpre.sum(axis=0, keepdims=True).T    # (N, 1)
    dwh = dwh + dsrc @ a_src.T + ddst @ a_dst.T
    da_src = wh.T @ dsrc
    da_dst = wh.T @ ddst
    return dwh, da_src, da_dst


register_op("gat_attention", _gat_attention_forward, _gat_attention_vjp)


# ----------------------------------------------------------------------
# pairwise_mlp2: 2-layer MLP over all pairwise differences s_i - s_j
# ----------------------------------------------------------------------
def _unpack_pairwise(arrays, has_b1, has_b2):
    it = iter(arrays)
    s, w1 = next(it), next(it)
    b1 = next(it) if has_b1 else None
    w2 = next(it)
    b2 = next(it) if has_b2 else None
    return s, w1, b1, w2, b2


def _pairwise_mlp2_forward(
    *arrays, activation, negative_slope=0.2, has_b1=True, has_b2=True
):
    s, w1, b1, w2, b2 = _unpack_pairwise(arrays, has_b1, has_b2)
    proj = s @ w1                                   # (N, h): the O(N·d·h) trick
    pre = proj[:, None, :] - proj[None, :, :]       # (N, N, h)
    if b1 is not None:
        pre = pre + b1
    hid, local = _act_with_local(activation, pre, negative_slope)
    feats = hid @ w2                                # (N, N, K)
    if b2 is not None:
        feats = feats + b2
    return feats, (local, hid)


def _pairwise_mlp2_vjp(
    g, inputs, res, *, activation, negative_slope=0.2, has_b1=True, has_b2=True
):
    local, hid = res
    s, w1, b1, w2, b2 = _unpack_pairwise(inputs, has_b1, has_b2)
    hdim = hid.shape[-1]
    k = g.shape[-1]

    dhid = g @ w2.T
    dw2 = hid.reshape(-1, hdim).T @ g.reshape(-1, k)
    db2 = g.sum(axis=(0, 1)) if has_b2 else None
    dpre = dhid if local is None else dhid * local
    db1 = dpre.sum(axis=(0, 1)) if has_b1 else None
    # pre_ij depends on +proj_i and -proj_j
    dproj = dpre.sum(axis=1) - dpre.sum(axis=0)     # (N, h)
    ds = dproj @ w1.T
    dw1 = s.T @ dproj

    grads = [ds, dw1]
    if has_b1:
        grads.append(db1)
    grads.append(dw2)
    if has_b2:
        grads.append(db2)
    return tuple(grads)


register_op("pairwise_mlp2", _pairwise_mlp2_forward, _pairwise_mlp2_vjp)




# ----------------------------------------------------------------------
# pooled_mlp2: Σ_j mlp(s_i - s_j) in closed form, O(N log N · h)
# ----------------------------------------------------------------------
#: piecewise-linear activations as ``a*x + c*|x|`` (leaky slope m:
#: a = (1+m)/2, c = (1-m)/2) — the split that lets :func:`pooled_mlp2`
#: sum them over all pairs without an N² pass
PIECEWISE_LINEAR = {
    "relu": (0.5, 0.5),
    "leaky_relu": (0.6, 0.4),  # slope 0.2
    "identity": (1.0, 0.0),
}


def _merged_positions(order: np.ndarray, n: int):
    """Per column, where each ``v_i`` / ``P_j`` landed in the merged sort.

    ``order`` argsorts ``[v; P]`` (``(2N, h)``, ``v`` rows first); the
    stable sort therefore places every ``v_i`` before the ``P_j`` it
    ties with.  Returns ``(is_p, pos_v, pos_p)``.
    """
    inv = np.empty_like(order)
    np.put_along_axis(inv, order, np.arange(2 * n)[:, None], axis=0)
    return order >= n, inv[:n], inv[n:]


def pooled_mlp2(proj, b1, w2, b2, activation):
    """``Σ_j mlp(s_i - s_j)`` for a 2-layer head from ``proj = s @ W1``.

    Pooling commutes through the linear output layer, and the hidden
    activation splits as ``a·x + c·|x|`` (:data:`PIECEWISE_LINEAR`), so
    with ``x_ij = v_i - P_j`` (``v = P + b₁``) the pooled hidden vector
    is

        Σ_j act(x_ij) = a·(N·v_i - Σ_j P_j) + c·Σ_j |v_i - P_j|

    and the absolute-deviation sum is the sorted prefix-sum identity:
    with ``r_i = #{P_j < v_i}`` and ``S_i`` the sum of those ``P_j``,
    ``Σ_j |v_i - P_j| = v_i·(2r_i - N) - 2·S_i + Σ_j P_j``.  One stable
    argsort of ``[v; P]`` per hidden column yields every ``r_i`` and
    ``S_i`` at once.  The shared kernel of the no-grad decode and the
    ``pooled_mlp2`` tape record; returns ``(feats, (pooled, order))``:
    O(N·h) residuals, ``order`` is ``None`` when ``c == 0``.
    """
    a, c = PIECEWISE_LINEAR[activation]
    n = proj.shape[0]
    v = proj + b1 if b1 is not None else proj
    pooled = a * (n * v - proj.sum(axis=0))
    order = None
    if c:
        merged = np.concatenate([v, proj])
        order = np.argsort(merged, axis=0, kind="stable")
        is_p, pos_v, _ = _merged_positions(order, n)
        r = np.take_along_axis(np.cumsum(is_p, axis=0), pos_v, axis=0)
        # prefix sums of the sorted P_j; the interleaved v rows add
        # exact zeros, so the sums equal a cumsum over sorted P alone
        prefix = np.cumsum(
            np.where(is_p, np.take_along_axis(merged, order, axis=0), 0.0),
            axis=0,
        )
        below = np.take_along_axis(prefix, pos_v, axis=0)
        pooled = pooled + c * (v * (2 * r - n) - 2 * below + prefix[-1])
    feats = pooled @ w2
    if b2 is not None:
        feats = feats + n * b2
    return feats, (pooled, order)


def _pooled_mlp2_forward(*arrays, activation, has_b1=True, has_b2=True):
    s, w1, b1, w2, b2 = _unpack_pairwise(arrays, has_b1, has_b2)
    return pooled_mlp2(s @ w1, b1, w2, b2, activation)


def _pooled_mlp2_vjp(g, inputs, res, *, activation, has_b1=True, has_b2=True):
    s, w1, b1, w2, b2 = _unpack_pairwise(inputs, has_b1, has_b2)
    pooled, order = res
    a, c = PIECEWISE_LINEAR[activation]
    n = pooled.shape[0]
    dp = g @ w2.T                                   # (N, h) on the pooled hidden
    dp_total = dp.sum(axis=0)
    dv = a * n * dp
    dproj = -a * dp_total                           # broadcasts over j
    if c:
        # d|x|/dx with ties (x == 0) counted as x <= 0 — the same
        # ``pre > 0`` convention as _act_with_local, so zero biases
        # (every diagonal x_ii on the kink) match the pairwise records:
        #   dv_i  += c·dp_i·(#{P_j < v_i} - #{P_j >= v_i})
        #   dP_j  += c·(Σ_{v_i <= P_j} dp_i - Σ_{v_i > P_j} dp_i)
        is_p, pos_v, pos_p = _merged_positions(order, n)
        r = np.take_along_axis(np.cumsum(is_p, axis=0), pos_v, axis=0)
        dv = dv + c * dp * (2 * r - n)
        dp_sorted = np.take_along_axis(
            np.concatenate([dp, np.zeros_like(dp)]), order, axis=0
        )
        le = np.take_along_axis(np.cumsum(dp_sorted, axis=0), pos_p, axis=0)
        dproj = dproj + c * (2 * le - dp_total)
    dproj = dproj + dv                              # v = P + b₁
    grads = [dproj @ w1.T, s.T @ dproj]
    if has_b1:
        grads.append(dv.sum(axis=0))
    grads.append(pooled.T @ g)
    if has_b2:
        grads.append(n * g.sum(axis=0))
    return tuple(grads)


register_op("pooled_mlp2", _pooled_mlp2_forward, _pooled_mlp2_vjp)


# ----------------------------------------------------------------------
# pairwise_mixbern_loglik: θ head + MixBernoulli row log-likelihood,
# rematerialized in row blocks
# ----------------------------------------------------------------------
#: pairs per row block of this record and of the no-grad decode
#: (``repro.core.generator``), both reading it at call time: the
#: block's (B·N, h) temporaries stay L2-resident (~0.3 MB at h=36);
#: 8192+ pair blocks spill and run ~3x slower
_PAIR_BUDGET = 1024


def _theta_blocks(proj, v, w2, b2, activation, slope):
    """Yield ``(lo, hi, pre, hid, theta)`` per block of source rows.

    Arrays are flat over the block's pairs — row ``(i - lo)·N + j``
    holds pair ``(i, j)`` — with ``pre = v_i - P_j``, ``hid`` its
    activation and ``theta = σ(hid @ W₂ + b₂)``.  Broadcasting ``v``
    over its rows and subtracting ``P`` tiled once per call keeps the
    subtraction on contiguous operands.

    The three arrays are views of one block-sized scratch set that
    this call allocates and every block overwrites: a caller uses (and
    may overwrite) them before it advances the loop.  The set is local
    to the call, so concurrent calls never share it.
    """
    n, h = proj.shape
    step = max(_PAIR_BUDGET // n, 1)
    pairs = _block_pairs(n)
    tiled = np.tile(proj, (min(step, n), 1))
    pre_buf, hid_buf = np.empty((pairs, h)), np.empty((pairs, h))
    theta_buf, exp_buf = np.empty((2, pairs, w2.shape[1]))
    neg_buf = np.empty(theta_buf.shape, bool)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        m = (hi - lo) * n
        pre = pre_buf[:m]
        np.copyto(pre.reshape(hi - lo, n, h), v[lo:hi, None, :])
        np.subtract(pre, tiled[:m], out=pre)
        hid = _activate(activation, pre, hid_buf[:m], slope)
        theta = np.matmul(hid, w2, out=theta_buf[:m])
        if b2 is not None:
            np.add(theta, b2, out=theta)
        stable_sigmoid(theta, out=theta, scratch=(exp_buf[:m], neg_buf[:m]))
        yield lo, hi, pre, hid, theta


def _block_pairs(n: int) -> int:
    """Pairs in the largest row block of an ``n``-node record: the
    rows of each block-sized scratch buffer."""
    return min(max(_PAIR_BUDGET // n, 1), n) * n


def _diagonal(n: int, lo: int, hi: int) -> np.ndarray:
    """Flat block rows of the self-pairs ``(i, i)``, ``lo <= i < hi``."""
    rows = np.arange(hi - lo)
    return rows * n + rows + lo


def _pairwise_mixbern_loglik_forward(
    *arrays, adjacency, eps, activation, negative_slope=0.2,
    has_b1=True, has_b2=True,
):
    s, w1, b1, w2, b2 = _unpack_pairwise(arrays, has_b1, has_b2)
    proj = s @ w1
    v = proj + b1 if b1 is not None else proj
    n, k = proj.shape[0], w2.shape[1]
    out = np.empty((n, k))
    pairs = _block_pairs(n)
    log_bern_buf = np.empty((pairs, k))
    absent_buf = np.empty((pairs, 1))
    blocks = _theta_blocks(proj, v, w2, b2, activation, negative_slope)
    for lo, hi, _, _, theta in blocks:
        m = theta.shape[0]
        np.clip(theta, eps, 1.0 - eps, out=theta)
        a = adjacency[lo:hi].reshape(-1, 1)
        # a·log θ + (1-a)·log(1-θ), the second term written over θ
        log_bern = np.log(theta, out=log_bern_buf[:m])
        np.multiply(a, log_bern, out=log_bern)
        np.log(np.subtract(1.0, theta, out=theta), out=theta)
        np.multiply(np.subtract(1.0, a, out=absent_buf[:m]), theta, out=theta)
        np.add(log_bern, theta, out=log_bern)
        log_bern[_diagonal(n, lo, hi)] = 0.0        # no self-loops
        out[lo:hi] = log_bern.reshape(hi - lo, n, k).sum(axis=1)
    return out, (proj, v)


def _pairwise_mixbern_loglik_vjp(
    g, inputs, res, *, adjacency, eps, activation, negative_slope=0.2,
    has_b1=True, has_b2=True,
):
    s, w1, b1, w2, b2 = _unpack_pairwise(inputs, has_b1, has_b2)
    proj, v = res
    n, h = proj.shape
    k = w2.shape[1]
    # piecewise-linear heads split dpre = m·dhid + (1-m)·[pre > 0]·dhid
    # (ties count as pre <= 0, like _act_with_local); the m·dhid part
    # pools through W₂ from (·, K) sums, so only the masked part is
    # ever (B·N, h)
    slope = {"identity": 1.0, "relu": 0.0, "leaky_relu": negative_slope}.get(
        activation
    )
    drow = np.empty((n, k))                         # Σ_j dfeats_ij
    dcol = np.zeros((n, k))                         # Σ_i dfeats_ij
    dv = np.zeros_like(v)                           # Σ_j of the rest of dpre
    dcol_h = np.zeros_like(proj)                    # Σ_i of the rest of dpre
    dw2 = np.zeros_like(w2)
    pairs = _block_pairs(n)
    dfeats_buf, dhid_buf = np.empty((pairs, k)), np.empty((pairs, h))
    clamped_buf, upper_buf = np.empty((2, pairs, k), bool)
    positive_buf = np.empty((pairs, h), bool)
    blocks = _theta_blocks(proj, v, w2, b2, activation, negative_slope)
    for lo, hi, pre, hid, theta in blocks:
        m = theta.shape[0]
        # d/df of a·log θ + (1-a)·log(1-θ) is a - θ wherever the clip
        # is inactive, and 0 where it clamps
        clamped = np.greater_equal(theta, eps, out=clamped_buf[:m])
        clamped &= np.less_equal(theta, 1.0 - eps, out=upper_buf[:m])
        np.logical_not(clamped, out=clamped)
        dfeats = np.subtract(
            adjacency[lo:hi].reshape(-1, 1), theta, out=dfeats_buf[:m]
        )
        blk = dfeats.reshape(hi - lo, n, k)
        np.multiply(g[lo:hi, None, :], blk, out=blk)
        np.copyto(dfeats, 0.0, where=clamped)
        dfeats[_diagonal(n, lo, hi)] = 0.0
        dw2 += hid.T @ dfeats
        drow[lo:hi] = blk.sum(axis=1)
        dcol += blk.sum(axis=0)
        if slope == 1.0:
            continue
        dpre = np.matmul(dfeats, w2.T, out=dhid_buf[:m])
        if slope is None:
            dpre *= _act_with_local(activation, pre, negative_slope)[1]
        else:
            dpre *= np.greater(pre, 0, out=positive_buf[:m])
            dpre *= 1.0 - slope
        dpre = dpre.reshape(hi - lo, n, h)
        dv[lo:hi] = dpre.sum(axis=1)                # pre_ij = v_i - P_j
        dcol_h += dpre.sum(axis=0)
    if slope:
        dv = dv + slope * (drow @ w2.T)
        dcol_h = dcol_h + slope * (dcol @ w2.T)
    dproj = dv - dcol_h
    grads = [dproj @ w1.T, s.T @ dproj]
    if has_b1:
        grads.append(dv.sum(axis=0))
    grads.append(dw2)
    if has_b2:
        grads.append(drow.sum(axis=0))
    return tuple(grads)


register_op(
    "pairwise_mixbern_loglik",
    _pairwise_mixbern_loglik_forward,
    _pairwise_mixbern_loglik_vjp,
)
