"""Shard plans and deterministic per-shard RNG stream slicing.

Sharded generation partitions the node rows of one MixBernoulli decode
into contiguous ranges.  Two ingredients make the partition invisible
to the sampled distribution:

* :class:`ShardPlan` — a balanced, contiguous partition of ``[0, N)``
  into ``n_shards`` row ranges.  Contiguity matters: each shard's edge
  output is CSR-ordered within its range, so the merged columns are in
  canonical order by construction.
* :func:`sliced_generator` — a :class:`numpy.random.Generator` whose
  stream is the master PCG64 stream *advanced to a row offset*.  The
  monolithic decode draws ``N`` component uniforms followed by ``N²``
  row-major edge uniforms (one row block at a time); uniform doubles
  consume exactly one 64-bit PCG64 step each, so the draws belonging
  to rows ``[lo, hi)`` occupy a known, contiguous window of the master
  stream.  A shard
  reproduces its window bit-for-bit by advancing a copy of the master
  state — **every** shard count therefore yields the same graph as the
  unsharded :meth:`repro.core.model.VRDAG.generate`, not merely the
  same distribution.  (This is strictly stronger than giving each
  shard an independent ``SeedSequence.spawn`` stream, which changes
  the realized sample whenever the shard count changes.)

After the shards finish, the coordinator calls
:func:`advance_past_decode` so the master generator lands exactly
where the monolithic decode would have left it; all non-sharded draws
(latent noise, attribute noise) continue on the master stream
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = [
    "ShardPlan",
    "sliced_generator",
    "advance_past_decode",
    "decode_draw_count",
]


@dataclass(frozen=True)
class ShardPlan:
    """A contiguous, balanced partition of the node rows ``[0, N)``.

    ``bounds`` has ``n_shards + 1`` non-decreasing int entries starting
    at 0 and ending at ``num_nodes``; shard ``k`` owns rows
    ``[bounds[k], bounds[k + 1])``.  Shards may be empty when
    ``n_shards > num_nodes``.
    """

    num_nodes: int
    bounds: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        b = self.bounds
        if len(b) < 2 or b[0] != 0 or b[-1] != self.num_nodes:
            raise ValueError(
                f"bounds must run 0..{self.num_nodes}, got {b}"
            )
        if any(lo > hi for lo, hi in zip(b[:-1], b[1:])):
            raise ValueError(f"bounds must be non-decreasing, got {b}")

    @classmethod
    def balanced(cls, num_nodes: int, n_shards: int) -> "ShardPlan":
        """Split ``N`` rows into ``n_shards`` ranges differing by <= 1 row."""
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        base, extra = divmod(int(num_nodes), n_shards)
        bounds = [0]
        for k in range(n_shards):
            bounds.append(bounds[-1] + base + (1 if k < extra else 0))
        return cls(int(num_nodes), tuple(bounds))

    @property
    def n_shards(self) -> int:
        """Number of row ranges (including empty ones)."""
        return len(self.bounds) - 1

    def ranges(self) -> List[Tuple[int, int]]:
        """Non-empty ``(lo, hi)`` row ranges in ascending order."""
        return [
            (lo, hi)
            for lo, hi in zip(self.bounds[:-1], self.bounds[1:])
            if hi > lo
        ]


def decode_draw_count(num_nodes: int) -> int:
    """Uniform doubles one MixBernoulli decode consumes: ``N + N²``.

    One component draw per row (``rng.random((N, 1))``) plus one edge
    draw per ordered pair (``rng.random((N, N))``).
    """
    return num_nodes + num_nodes * num_nodes


def sliced_generator(state: dict, offset: int) -> np.random.Generator:
    """Generator positioned ``offset`` uniform draws past ``state``.

    ``state`` is a ``bit_generator.state`` dict of the master PCG64
    stream captured immediately before the decode.  Each
    ``Generator.random`` float64 consumes exactly one PCG64 step, so
    advancing by ``offset`` positions the new generator at the master
    stream's ``offset``-th upcoming draw.
    """
    bg = np.random.PCG64()
    bg.state = state
    if offset:
        bg.advance(offset)
    return np.random.Generator(bg)


def advance_past_decode(rng: np.random.Generator, num_nodes: int) -> None:
    """Advance the master generator past one decode's worth of draws.

    Called by the coordinator after the shards have consumed their
    stream slices, so subsequent draws (attribute noise, next-step
    latents) match the monolithic path bit-for-bit.
    """
    bit_gen = rng.bit_generator
    if not isinstance(bit_gen, np.random.PCG64):
        raise TypeError(
            "sharded decoding requires a PCG64-backed Generator "
            f"(got {type(bit_gen).__name__}); numpy.random.default_rng "
            "constructs one"
        )
    bit_gen.advance(decode_draw_count(num_nodes))
