"""Sharded generation: the decoder hook, executors and entry point.

:class:`ShardedStructureDecoder` plugs into
:meth:`repro.core.model.VRDAG.generate` via its ``structure_decoder``
hook: Algorithm 1 (latent rollout, attribute decoding, recurrence)
stays in the model, while each timestep's MixBernoulli structure
decode — the O(N²) hot path — is partitioned across shards and run on
one of three executors:

* ``"serial"`` — in-process loop; zero overhead, the default.
* ``"thread"`` — ``concurrent.futures`` thread pool; the pairwise
  kernels are NumPy matmuls that release the GIL, so threads scale on
  multi-core hosts with zero serialization cost.
* ``"process"`` — ``multiprocessing`` pool (fork where available);
  full core isolation at the cost of pickling each step's ``(N, h)``
  projection to the workers.

Every executor and every shard count produces **bit-identical**
graphs: shards consume disjoint slices of the master RNG stream (see
``repro.generation.sharding``), so ``n_shards=1`` equals
``VRDAG.generate`` exactly and ``n_shards=k`` equals ``n_shards=1``
exactly.  Determinism is therefore a property of the seed alone —
shard count and executor are pure deployment knobs.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.core.generator import MixBernoulliSampler
from repro.generation.decode import PlainHead, ShardTask, decode_shard, prepare_decode
from repro.generation.merge import merge_step_columns
from repro.generation.sharding import ShardPlan, advance_past_decode
from repro.profiling import profiler
from repro.reliability.guard import EXECUTORS, WorkerPool

__all__ = ["ShardedStructureDecoder", "generate_sharded", "EXECUTORS"]


class ShardedStructureDecoder:
    """Drop-in ``structure_decoder`` running the decode across shards.

    Parameters
    ----------
    plan:
        The row partition (:meth:`ShardPlan.balanced` for the common
        case).
    executor:
        One of :data:`EXECUTORS`.  Pools are created lazily on the
        first decode and reused across timesteps; use the instance as
        a context manager (or call :meth:`close`) to release them.
    max_workers:
        Pool width for ``"thread"`` / ``"process"``; defaults to
        ``min(n_shards, cpu_count)``.

    Instances are callable with the ``(sampler, s, rng)`` signature
    :meth:`VRDAG.generate <repro.core.model.VRDAG.generate>` expects
    and return CSR-ordered ``(src, dst)`` int64 edge columns.
    """

    def __init__(
        self,
        plan: ShardPlan,
        executor: str = "serial",
        max_workers: Optional[int] = None,
    ):
        self.plan = plan
        self.executor = executor
        if max_workers is None:
            max_workers = min(plan.n_shards, os.cpu_count() or 1)
        self._pool = WorkerPool(executor, max_workers, "shard-decode")

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (no-op for ``serial``)."""
        self._pool.close()

    def __enter__(self) -> "ShardedStructureDecoder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the decode hook
    # ------------------------------------------------------------------
    def __call__(
        self,
        sampler: MixBernoulliSampler,
        s,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode one timestep's structure across the plan's shards."""
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError(
                "sharded decoding slices a PCG64 stream; got "
                f"{type(rng.bit_generator).__name__}"
            )
        with profiler.timer("generation.sharded.prepare"):
            alpha, proj, block = prepare_decode(sampler, s)
        n = proj.shape[0]
        if n != self.plan.num_nodes:
            raise ValueError(
                f"plan covers {self.plan.num_nodes} nodes, states have {n}"
            )
        head = PlainHead.from_mlp(sampler.f_theta)
        state = rng.bit_generator.state
        tasks = [
            ShardTask(
                lo=lo,
                hi=hi,
                head=head,
                proj=proj,
                alpha=alpha[lo:hi],
                rng_state=state,
                block=block,
            )
            for lo, hi in self.plan.ranges()
        ]
        with profiler.timer("generation.sharded.decode"):
            parts = self._pool.map(decode_shard, tasks)
        # the shards consumed copies of the stream; move the master past
        # the decode window so downstream draws stay monolithic-exact
        advance_past_decode(rng, n)
        with profiler.timer("generation.sharded.merge"):
            return merge_step_columns(parts)


def generate_sharded(
    model,
    num_timesteps: int,
    seed: Optional[int] = None,
    *,
    n_shards: int = 1,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    plan: Optional[ShardPlan] = None,
):
    """Sharded Algorithm 1 rollout — ``VRDAG.generate`` at scale.

    Bit-identical to ``model.generate(num_timesteps, seed=seed)`` for
    every ``n_shards`` and executor (see module docstring); returns the
    same store-backed :class:`~repro.graph.dynamic.DynamicAttributedGraph`.

    Parameters
    ----------
    model:
        A :class:`~repro.core.model.VRDAG` (or any model whose
        ``generate`` accepts a ``structure_decoder`` hook).
    num_timesteps:
        Rollout length ``T``.
    seed:
        Generation seed; defaults to the model's own scheme.
    n_shards:
        Number of contiguous row shards (ignored when ``plan`` given).
    executor, max_workers:
        See :class:`ShardedStructureDecoder`.
    plan:
        Explicit :class:`ShardPlan` overriding ``n_shards``.
    """
    plan = plan or ShardPlan.balanced(model.config.num_nodes, n_shards)
    with ShardedStructureDecoder(plan, executor, max_workers) as decoder:
        return model.generate(
            num_timesteps, seed=seed, structure_decoder=decoder
        )
