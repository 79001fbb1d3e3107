"""Profiler: scoped timers, counters, enable/disable semantics."""

from repro.profiling import Profiler


class TestProfiler:
    def test_disabled_by_default_records_nothing(self):
        p = Profiler()
        with p.timer("x"):
            pass
        p.count("c", 5)
        assert p.snapshot() == {"timers": {}, "counters": {}}

    def test_enabled_records_time_and_calls(self):
        p = Profiler(enabled=True)
        for _ in range(3):
            with p.timer("scope"):
                pass
        p.count("edges", 7)
        p.count("edges", 3)
        snap = p.snapshot()
        assert snap["timers"]["scope"]["calls"] == 3
        assert snap["timers"]["scope"]["seconds"] >= 0.0
        assert snap["counters"]["edges"] == 10

    def test_enable_context_restores_prior_state(self):
        p = Profiler()
        with p.enable():
            assert p.enabled
            with p.timer("inner"):
                pass
        assert not p.enabled
        assert p.timers["inner"].calls == 1

    def test_timer_records_on_exception(self):
        p = Profiler(enabled=True)
        try:
            with p.timer("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert p.timers["boom"].calls == 1

    def test_nested_timers(self):
        p = Profiler(enabled=True)
        with p.timer("outer"):
            with p.timer("inner"):
                pass
        assert set(p.timers) == {"outer", "inner"}

    def test_reset(self):
        p = Profiler(enabled=True)
        with p.timer("x"):
            pass
        p.count("y")
        p.reset()
        assert p.snapshot() == {"timers": {}, "counters": {}}

    def test_report_renders_all_scopes(self):
        p = Profiler(enabled=True)
        with p.timer("alpha"):
            pass
        p.count("edges", 4)
        report = p.report()
        assert "alpha" in report and "edges" in report


class TestProfilerThreads:
    """Enabled accumulation is exact when worker threads share it."""

    THREADS, CALLS = 4, 50_000

    def _hammer(self, work):
        import sys
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force preemption mid-update
        try:
            threads = [
                threading.Thread(target=work) for _ in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)

    def test_count_is_exact_under_threads(self):
        p = Profiler(enabled=True)

        def work():
            for _ in range(self.CALLS):
                p.count("c")

        self._hammer(work)
        assert p.counters["c"] == self.THREADS * self.CALLS

    def test_timer_calls_are_exact_under_threads(self):
        p = Profiler(enabled=True)

        def work():
            for _ in range(self.CALLS):
                with p.timer("t"):
                    pass

        self._hammer(work)
        assert p.timers["t"].calls == self.THREADS * self.CALLS
