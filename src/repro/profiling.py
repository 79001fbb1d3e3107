"""Scoped wall-clock timers and counters for hot-path accounting.

The ROADMAP's "fast as the hardware allows" goal needs *measured* hot
paths, not guessed ones.  This module provides a process-global
:class:`Profiler` with near-zero overhead when disabled (one attribute
check per call site), used by the trainer, the evaluation harness, and
the Fig. 9 / Table III/IV runs of ``scripts/bench_report.py``::

    from repro.profiling import profiler

    with profiler.timer("trainer.epoch"):
        ...
    profiler.count("decode.edges", n_edges)
    print(profiler.report())

Timers nest freely; each named scope accumulates total seconds and call
count, exactly under threads (one lock guards every update).
``snapshot()`` returns plain dicts ready for JSON serialization (the
``BENCH_perf.json`` schema documented in ``benchmarks/README.md``).
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class ScopeStats:
    """Accumulated statistics for one named timer scope."""

    seconds: float = 0.0
    calls: int = 0

    @property
    def mean_seconds(self) -> float:
        """Average seconds per call (0 before any call)."""
        return self.seconds / self.calls if self.calls else 0.0


@dataclass
class Profiler:
    """Named scoped timers + monotonic counters.

    Disabled by default so library code can instrument unconditionally;
    benchmarks and the CLI enable it around the regions they measure.
    """

    enabled: bool = False
    timers: Dict[str, ScopeStats] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @contextlib.contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock time of the ``with`` body under ``name``."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                stats = self.timers.setdefault(name, ScopeStats())
                stats.seconds += elapsed
                stats.calls += 1

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (no-op while disabled)."""
        if self.enabled:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + int(n)

    @contextlib.contextmanager
    def enable(self) -> Iterator["Profiler"]:
        """Temporarily switch the profiler on (restores the prior state)."""
        prev = self.enabled
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = prev

    def reset(self) -> None:
        """Drop all accumulated timers and counters."""
        with self._lock:
            self.timers.clear()
            self.counters.clear()

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready view: ``{"timers": {...}, "counters": {...}}``."""
        with self._lock:
            return {
                "timers": {
                    name: {
                        "seconds": stats.seconds,
                        "calls": stats.calls,
                        "mean_seconds": stats.mean_seconds,
                    }
                    for name, stats in sorted(self.timers.items())
                },
                "counters": dict(sorted(self.counters.items())),
            }

    def report(self) -> str:
        """Human-readable table of all scopes, slowest first."""
        snap = self.snapshot()
        lines = ["scope                                    total_s     calls    mean_ms"]
        for name, stats in sorted(
            snap["timers"].items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"{name:<40} {stats['seconds']:>8.3f} {stats['calls']:>9d} "
                f"{1e3 * stats['mean_seconds']:>9.3f}"
            )
        for name, value in snap["counters"].items():
            lines.append(f"{name:<40} {value:>18d}")
        return "\n".join(lines)


def best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock of ``repeats`` calls (min filters scheduler noise).

    Shared by ``scripts/bench_report.py`` and the ``-m perf`` tests so
    the trajectory and the gates measure the same quantity.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: process-global profiler used by the trainer / harness / benchmarks
profiler = Profiler()
