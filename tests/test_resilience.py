"""Resilience primitives under fake clocks: every transition, no sleeping.

All four primitives take injectable clocks/sleeps, so the tests drive
deadline expiry, backoff schedules, breaker timers and bucket refills
deterministically — zero wall-clock waits, bit-identical reruns.
"""

from __future__ import annotations

import pytest

from repro.io.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    ResilienceError,
    RetriesExhausted,
    Retry,
    TokenBucket,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_budget_is_consumed_by_clock_advance(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired
        clock.advance(0.6)
        assert deadline.remaining() == pytest.approx(0.4)
        clock.advance(0.6)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_after_ms_and_require(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250.0, clock=clock)
        assert deadline.remaining() == pytest.approx(0.25)
        assert not deadline.expired
        clock.advance(0.25)
        assert deadline.expired

    def test_zero_budget_is_born_expired(self):
        deadline = Deadline(0.0, clock=FakeClock())
        assert deadline.expired

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_s"):
            Deadline(-0.1)

    def test_errors_are_typed(self):
        assert issubclass(DeadlineExceeded, ResilienceError)
        assert issubclass(CircuitOpen, ResilienceError)
        assert issubclass(RetriesExhausted, ResilienceError)


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        sleeps: list[float] = []
        attempts = {"n": 0}

        def flaky() -> str:
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError("transient")
            return "ok"

        retry = Retry(max_attempts=5, sleep=sleeps.append)
        assert retry.call(flaky) == "ok"
        assert attempts["n"] == 3
        assert len(sleeps) == 2  # one backoff per failed attempt

    def test_exhaustion_raises_typed_error_chained_to_last_cause(self):
        retry = Retry(max_attempts=3, sleep=lambda _s: None)

        def always_down() -> None:
            raise OSError("still down")

        with pytest.raises(RetriesExhausted, match="after 3 attempts") as info:
            retry.call(always_down)
        assert isinstance(info.value.__cause__, OSError)

    def test_non_retryable_errors_pass_through_immediately(self):
        attempts = {"n": 0}

        def typo() -> None:
            attempts["n"] += 1
            raise KeyError("not transient")

        retry = Retry(max_attempts=5, retry_on=(OSError,), sleep=lambda _s: None)
        with pytest.raises(KeyError):
            retry.call(typo)
        assert attempts["n"] == 1

    def test_backoff_schedule_is_seeded_and_bounded(self):
        def schedule(seed: int) -> list[float]:
            return list(
                Retry(
                    max_attempts=6,
                    base_delay_s=0.1,
                    max_delay_s=0.5,
                    multiplier=2.0,
                    jitter=0.5,
                    seed=seed,
                ).delays()
            )

        first, again, other = schedule(7), schedule(7), schedule(8)
        assert first == again  # same seed -> replayable trace
        assert first != other
        raw = [0.1, 0.2, 0.4, 0.5, 0.5]  # capped exponential, pre-jitter
        for delay, bound in zip(first, raw):
            assert 0.5 * bound <= delay <= bound  # jitter=0.5 scales in [.5, 1]

    def test_on_retry_hook_sees_attempt_error_and_delay(self):
        seen: list[tuple[int, str, float]] = []
        retry = Retry(
            max_attempts=3,
            sleep=lambda _s: None,
            on_retry=lambda attempt, exc, delay: seen.append(
                (attempt, str(exc), delay)
            ),
        )

        def always_down() -> None:
            raise OSError("down")

        with pytest.raises(RetriesExhausted):
            retry.call(always_down)
        assert [(attempt, message) for attempt, message, _ in seen] == [
            (1, "down"), (2, "down"),
        ]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            Retry(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            Retry(jitter=1.5)
        with pytest.raises(ValueError, match="max_delay_s"):
            Retry(base_delay_s=1.0, max_delay_s=0.5)


class TestCircuitBreaker:
    def make(self, clock, **kwargs):
        transitions: list[tuple[str, str]] = []
        breaker = CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            reset_timeout_s=kwargs.pop("reset_timeout_s", 10.0),
            clock=clock,
            on_state_change=lambda old, new: transitions.append((old, new)),
            **kwargs,
        )
        return breaker, transitions

    def test_trips_open_at_threshold_and_refuses_calls(self):
        clock = FakeClock()
        breaker, transitions = self.make(clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert transitions == [(BREAKER_CLOSED, BREAKER_OPEN)]

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker, transitions = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()  # the single probe slot
        assert not breaker.allow()  # no second probe
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        assert transitions == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_half_open_probe_failure_reopens_and_restarts_timer(self):
        clock = FakeClock()
        breaker, _ = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.advance(9.9)  # timer restarted at the probe failure
        assert breaker.state == BREAKER_OPEN
        clock.advance(0.1)
        assert breaker.state == BREAKER_HALF_OPEN

    def test_success_resets_the_consecutive_failure_count(self):
        breaker, _ = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_call_wrapper_counts_and_refuses(self):
        clock = FakeClock()
        breaker, _ = self.make(clock, failure_threshold=1)

        def down() -> None:
            raise RuntimeError("dep broken")

        with pytest.raises(RuntimeError, match="dep broken"):
            breaker.call(down)
        with pytest.raises(CircuitOpen, match="circuit is open"):
            breaker.call(lambda: "never runs")
        clock.advance(10.0)
        assert breaker.call(lambda: "recovered") == "recovered"
        assert breaker.state == BREAKER_CLOSED

    def test_multiple_half_open_probes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, half_open_probes=2,
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()


class TestTokenBucket:
    def test_burst_up_to_capacity_then_shed(self):
        clock = FakeClock()
        bucket = TokenBucket(3, 1.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_configured_rate_capped_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(2, 4.0, clock=clock)
        assert bucket.try_acquire(2.0)
        clock.advance(0.25)  # +1 token
        assert not bucket.try_acquire(1.000001)
        assert bucket.try_acquire(1.0)
        clock.advance(10.0)  # far past capacity
        assert not bucket.try_acquire(2.000002)
        assert bucket.try_acquire(2.0)

    def test_retry_after_names_the_refill_time(self):
        clock = FakeClock()
        bucket = TokenBucket(1, 2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.retry_after_s() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.retry_after_s() == pytest.approx(0.0)
        assert bucket.try_acquire()

    def test_constructor_and_acquire_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            TokenBucket(0, 1.0)
        with pytest.raises(ValueError, match="refill_per_s"):
            TokenBucket(1, 0.0)
        with pytest.raises(ValueError, match="tokens"):
            TokenBucket(1, 1.0).try_acquire(0.0)
