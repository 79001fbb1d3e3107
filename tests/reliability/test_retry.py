"""Deadline + RetryPolicy: deterministic backoff, never sleep past expiry."""

import time

import pytest

from repro.reliability import (
    Deadline,
    DeadlineExceededError,
    InjectedFault,
    RetryPolicy,
)


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Deadline(0.0)

    def test_after_maps_none_to_none(self):
        assert Deadline.after(None) is None
        assert isinstance(Deadline.after(1.0), Deadline)

    def test_fresh_deadline_not_expired(self):
        d = Deadline(10.0)
        assert not d.expired
        assert 0.0 < d.remaining() <= 10.0
        d.check()  # must not raise

    def test_expiry_raises_structured_error(self):
        d = Deadline(0.001)
        time.sleep(0.005)
        assert d.expired
        with pytest.raises(DeadlineExceededError) as err:
            d.check("unit-test")
        assert err.value.deadline_seconds == 0.001
        assert err.value.elapsed_seconds >= 0.001
        assert "unit-test" in str(err.value)


class TestRetryPolicyConfig:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"base_delay_seconds": -1}, "delays"),
            ({"backoff_multiplier": 0.5}, "multiplier"),
            ({"jitter": 2.0}, "jitter"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RetryPolicy(**kwargs)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_seconds=0.01,
            backoff_multiplier=2.0,
            max_delay_seconds=0.05,
            jitter=0.0,
        )
        delays = [policy.backoff_seconds(k) for k in range(5)]
        assert delays[:3] == [0.01, 0.02, 0.04]
        assert delays[3] == delays[4] == 0.05  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(jitter=0.5, seed=3, base_delay_seconds=0.1)
        again = RetryPolicy(jitter=0.5, seed=3, base_delay_seconds=0.1)
        for k in range(4):
            d = policy.backoff_seconds(k, key="req")
            assert d == again.backoff_seconds(k, key="req")
            raw = min(0.1 * 2.0**k, policy.max_delay_seconds)
            assert raw * 0.5 <= d <= raw

    def test_jitter_varies_by_key(self):
        policy = RetryPolicy(jitter=1.0, base_delay_seconds=0.1)
        assert policy.backoff_seconds(0, key="a") != policy.backoff_seconds(
            0, key="b"
        )


class TestRetryRun:
    def test_success_first_try(self):
        policy = RetryPolicy()
        result, attempts = policy.run(lambda: 42)
        assert (result, attempts) == (42, 1)

    def test_transient_fault_retried_to_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise InjectedFault("p", calls["n"])
            return "ok"

        slept = []
        policy = RetryPolicy(max_attempts=5, jitter=0.0,
                             base_delay_seconds=0.01)
        result, attempts = policy.run(flaky, sleep=slept.append)
        assert result == "ok" and attempts == 3
        assert slept == [0.01, 0.02]  # deterministic schedule

    def test_exhausted_attempts_reraise_with_count(self):
        policy = RetryPolicy(max_attempts=2)

        calls = []

        def always():
            calls.append(1)
            raise InjectedFault("p", 1)

        with pytest.raises(InjectedFault):
            policy.run(always, sleep=lambda s: None)
        assert len(calls) == 2

    def test_semantic_errors_never_retried(self):
        calls = {"n": 0}

        def bad():
            calls["n"] += 1
            raise ValueError("nope")

        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(ValueError):
            policy.run(bad, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_custom_retry_on(self):
        policy = RetryPolicy(max_attempts=2, retry_on=(KeyError,),
                             base_delay_seconds=0.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyError("x")
            return calls["n"]

        result, attempts = policy.run(flaky, sleep=lambda s: None)
        assert (result, attempts) == (2, 2)

    def test_expired_deadline_raises_before_calling(self):
        d = Deadline(0.001)
        time.sleep(0.005)
        policy = RetryPolicy()
        with pytest.raises(DeadlineExceededError):
            policy.run(lambda: pytest.fail("must not run"), deadline=d)

    def test_never_sleeps_past_deadline(self):
        """A backoff longer than the remaining budget raises instead."""
        policy = RetryPolicy(
            max_attempts=5, base_delay_seconds=10.0, jitter=0.0
        )
        d = Deadline(0.2)
        slept = []
        with pytest.raises(DeadlineExceededError) as err:
            policy.run(
                lambda: (_ for _ in ()).throw(InjectedFault("p", 1)),
                deadline=d,
                sleep=slept.append,
            )
        assert slept == []  # refused to sleep 10s on a 0.2s budget
        assert err.value.__cause__.point == "p"
