"""Shard-local MixBernoulli decoding on plain, picklable arrays.

A shard evaluates the θ head for its row range ``[lo, hi)`` against
all ``N`` destination columns and samples that range's adjacency rows.
Process-pool workers cannot cheaply receive autodiff modules, so the
head is mirrored into :class:`PlainHead` — bare weight/bias ndarrays
with the same attribute layout the fused kernels in
``repro.core.generator`` traverse — and the whole shard's work is
packed into one :class:`ShardTask` (everything a worker needs,
picklable, no model object).

A shard runs the same prologue and the same row loop
(:func:`~repro.core.generator.sample_rows`) as
:meth:`~repro.core.generator.MixBernoulliSampler.sample_edges`, on
RNG slices of the same master stream (see
``repro.generation.sharding``), so a shard's ``(src, dst)`` output
equals the corresponding row range of the monolithic decode exactly.
Per-shard peak memory is the ``(block, N)`` pairwise working set —
never an ``(N, N)`` buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.generator import prepare_decode, sample_rows
from repro.generation.sharding import sliced_generator

__all__ = ["PlainHead", "ShardTask", "decode_shard", "prepare_decode"]


class _PlainParam:
    """Bare ndarray with the ``.data`` attribute the kernels expect."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data


class _PlainLayer:
    """Weight/bias pair mirroring ``repro.nn.Linear``'s attribute layout."""

    __slots__ = ("weight", "bias")

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray]):
        self.weight = _PlainParam(weight)
        self.bias = None if bias is None else _PlainParam(bias)


class PlainHead:
    """Picklable mirror of an ``repro.nn.MLP``: layers + activation names.

    Exposes exactly the attributes
    :func:`repro.core.generator._pairwise_head_block` traverses
    (``layers[i].weight.data``, ``layers[i].bias.data``,
    ``activation``, ``out_activation``), so the fused pairwise kernel
    runs unmodified on either representation.
    """

    __slots__ = ("layers", "activation", "out_activation")

    def __init__(self, layers, activation: str, out_activation: str):
        self.layers = layers
        self.activation = activation
        self.out_activation = out_activation

    @classmethod
    def from_mlp(cls, mlp) -> "PlainHead":
        """Snapshot an MLP's parameters into plain arrays (no copy)."""
        layers = [
            _PlainLayer(
                layer.weight.data,
                None if layer.bias is None else layer.bias.data,
            )
            for layer in mlp.layers
        ]
        return cls(layers, mlp.activation, mlp.out_activation)

    def __getstate__(self):
        return (
            [(l.weight.data, None if l.bias is None else l.bias.data)
             for l in self.layers],
            self.activation,
            self.out_activation,
        )

    def __setstate__(self, state):
        raw, activation, out_activation = state
        self.layers = [_PlainLayer(w, b) for w, b in raw]
        self.activation = activation
        self.out_activation = out_activation


@dataclass
class ShardTask:
    """Everything one shard needs to decode rows ``[lo, hi)``.

    Fields
    ------
    lo, hi:
        The shard's row range within ``[0, N)``.
    head:
        :class:`PlainHead` mirror of the θ MLP.
    proj:
        ``(N, h)`` float64 first-layer projection of the node states
        (shared by every shard; the pairwise kernel needs all columns).
    alpha:
        ``(hi - lo, K)`` float64 normalized mixing weights for the
        shard's rows.
    rng_state:
        Master PCG64 ``bit_generator.state`` captured before the
        decode; the shard derives its stream slices from it.
    block:
        Row-block height for the pairwise working set.
    """

    lo: int
    hi: int
    head: PlainHead
    proj: np.ndarray
    alpha: np.ndarray
    rng_state: dict
    block: int


def decode_shard(task: ShardTask) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the adjacency rows of one shard.

    Returns ``(src, dst)`` int64 columns in CSR order with absolute
    row indices — the exact sub-columns the monolithic
    ``sample_edges`` would emit for rows ``[lo, hi)``: the component
    uniforms are rows ``[lo, hi)`` of the master's ``N``-draw block,
    the edge uniforms rows ``[lo, hi)`` of its ``N²``-draw block.
    """
    lo, hi, n = task.lo, task.hi, task.proj.shape[0]
    return sample_rows(
        task.head, task.proj, task.alpha, lo, hi, task.block,
        sliced_generator(task.rng_state, lo),
        sliced_generator(task.rng_state, n + lo * n),
    )
