"""Resilience primitives: deadlines, retries, circuit breakers, rate limits.

The serving stack (and any future distributed component) needs four small,
composable defenses against the failure modes a production deployment
actually sees — slow disks, corrupt artifacts, overload, and stuck
dependencies.  They live in ``repro.io`` (rank 0 under the import
contract) so every layer can use them without bending the architecture:

* :class:`Deadline` — a propagatable latency budget.  Created once at the
  edge (one per request), carried call-to-call, and consulted with
  :meth:`Deadline.remaining` / :attr:`Deadline.expired` so each hop spends
  only what is left rather than re-granting itself a fresh timeout.
* :class:`Retry` — bounded retries with exponential backoff and **seeded**
  jitter (a :class:`numpy.random.Generator` injected by seed, honoring the
  repolint RNG discipline: no hidden global randomness, replayable delay
  schedules).
* :class:`CircuitBreaker` — closed → open → half-open with an injectable
  monotonic clock.  Repeated failures trip the circuit so callers stop
  hammering a broken dependency; after ``reset_timeout_s`` a limited
  number of half-open probes decide between closing and re-opening.
* :class:`TokenBucket` — a lazily refilled rate limiter for admission
  control (burst up to ``capacity``, sustained ``refill_per_s``).

Everything is synchronous, allocation-light and dependency-free beyond
numpy; async callers use :meth:`Deadline.remaining` as their
``asyncio.wait_for`` timeout.  All clocks default to the obs clock
boundary, :func:`repro.obs.clock.monotonic`, and are injectable so tests
drive every state transition deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, TypeVar

import numpy as np

# Canonical home is repro.errors (the typed taxonomy); re-exported here
# because the serve stack has always imported it from this module.
from repro.errors import ResilienceError as ResilienceError
from repro.obs.clock import monotonic

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "DeadlineExceeded",
    "ResilienceError",
    "RetriesExhausted",
    "Retry",
    "TokenBucket",
]

T = TypeVar("T")


class DeadlineExceeded(ResilienceError):
    """An operation ran past (or was rejected by) its :class:`Deadline`."""


class CircuitOpen(ResilienceError):
    """A call was refused because its :class:`CircuitBreaker` is open."""


class RetriesExhausted(ResilienceError):
    """Every attempt of a :class:`Retry` schedule failed."""


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class Deadline:
    """A fixed latency budget, consumable across call boundaries.

    A request gets one Deadline at the edge; every downstream hop asks
    :meth:`remaining` for its own timeout and checks :attr:`expired`
    before doing work, so queue time, I/O time and compute time all draw
    from the same budget instead of stacking independent timeouts.
    """

    __slots__ = ("budget_s", "_clock", "_expires_at")

    def __init__(
        self, budget_s: float, clock: Callable[[], float] = monotonic
    ) -> None:
        if budget_s < 0:
            raise ValueError(f"budget_s must be >= 0, got {budget_s}")
        self.budget_s = float(budget_s)
        self._clock = clock
        self._expires_at = clock() + self.budget_s

    @classmethod
    def after_ms(
        cls, budget_ms: float, clock: Callable[[], float] = monotonic
    ) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        return cls(budget_ms / 1000.0, clock=clock)

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def __repr__(self) -> str:
        return (
            f"Deadline(budget_s={self.budget_s:.3f}, "
            f"remaining_s={self.remaining():.3f})"
        )


# ---------------------------------------------------------------------------
# Retry
# ---------------------------------------------------------------------------


class Retry:
    """Bounded retries with exponential backoff and seeded jitter.

    The delay before attempt ``n+1`` is
    ``min(max_delay_s, base_delay_s * multiplier**n)`` scaled by a jitter
    factor drawn from an **injected seed** (``[1 - jitter, 1]``, so the
    configured delay is an upper bound).  Seeding keeps the schedule
    replayable — the same seed produces the same backoff trace, which is
    what the repolint RNG rules demand of every random draw in the repo.
    """

    def __init__(
        self,
        *,
        max_attempts: int = 3,
        base_delay_s: float = 0.05,
        max_delay_s: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
        retry_on: tuple[type[BaseException], ...] = (OSError,),
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[int, BaseException, float], None] | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0, got {base_delay_s}")
        if max_delay_s < base_delay_s:
            raise ValueError("max_delay_s must be >= base_delay_s")
        if multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.multiplier = multiplier
        self.jitter = jitter
        self.retry_on = retry_on
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep
        self._on_retry = on_retry

    def delays(self) -> Iterator[float]:
        """The jittered backoff schedule (``max_attempts - 1`` delays)."""
        for attempt in range(self.max_attempts - 1):
            raw = min(self.max_delay_s, self.base_delay_s * self.multiplier**attempt)
            yield raw * (1.0 - self.jitter * float(self._rng.random()))

    def call(self, fn: Callable[[], T]) -> T:
        """Invoke ``fn`` until it succeeds or attempts run out; re-raises
        non-retryable exceptions immediately."""
        last_error: BaseException | None = None
        delays = self.delays()
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except self.retry_on as exc:
                last_error = exc
                if attempt == self.max_attempts:
                    break
                delay = next(delays)
                if self._on_retry is not None:
                    self._on_retry(attempt, exc, delay)
                self._sleep(delay)
        raise RetriesExhausted(
            f"gave up after {self.max_attempts} attempts: {last_error}"
        ) from last_error


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed / open / half-open failure isolation with an injectable clock.

    * **closed** — calls flow; ``failure_threshold`` consecutive failures
      trip the circuit open.
    * **open** — calls are refused outright (the broken dependency gets no
      traffic) until ``reset_timeout_s`` has elapsed.
    * **half-open** — up to ``half_open_probes`` trial calls are admitted;
      one success closes the circuit, one failure re-opens it and restarts
      the reset clock.

    State transitions are reported through ``on_state_change(old, new)``
    so a server can export breaker state as a metric.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = monotonic,
        on_state_change: Callable[[str, str], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s < 0:
            raise ValueError(f"reset_timeout_s must be >= 0, got {reset_timeout_s}")
        if half_open_probes < 1:
            raise ValueError(f"half_open_probes must be >= 1, got {half_open_probes}")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._on_state_change = on_state_change
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes = 0

    # -- state ----------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state; reading it applies the open → half-open timer."""
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._transition(BREAKER_HALF_OPEN)
            self._probes = 0
        return self._state

    def _transition(self, new_state: str) -> None:
        old_state = self._state
        if old_state == new_state:
            return
        self._state = new_state
        if self._on_state_change is not None:
            self._on_state_change(old_state, new_state)

    # -- protocol -------------------------------------------------------
    def allow(self) -> bool:
        """May a call proceed right now?  Half-open consumes a probe slot."""
        state = self.state
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_OPEN:
            return False
        if self._probes >= self.half_open_probes:
            return False
        self._probes += 1
        return True

    def record_success(self) -> None:
        """A guarded call succeeded; half-open success closes the circuit."""
        self._failures = 0
        if self.state != BREAKER_CLOSED:
            self._transition(BREAKER_CLOSED)
            self._probes = 0

    def record_failure(self) -> None:
        """A guarded call failed; trips or re-opens the circuit as needed."""
        self._failures += 1
        state = self.state
        if state == BREAKER_HALF_OPEN or (
            state == BREAKER_CLOSED and self._failures >= self.failure_threshold
        ):
            self._transition(BREAKER_OPEN)
            self._opened_at = self._clock()
            self._probes = 0

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the breaker: refuse when open, record outcome."""
        if not self.allow():
            raise CircuitOpen(
                f"circuit is {self.state} after {self._failures} consecutive "
                f"failures; retry after {self.reset_timeout_s:.1f}s"
            )
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------


class TokenBucket:
    """Lazily refilled token-bucket rate limiter.

    Admits bursts up to ``capacity`` and a sustained ``refill_per_s``;
    :meth:`try_acquire` never blocks — admission control wants an instant
    shed decision, not a queue.
    """

    def __init__(
        self,
        capacity: float,
        refill_per_s: float,
        *,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if refill_per_s <= 0:
            raise ValueError(f"refill_per_s must be > 0, got {refill_per_s}")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._tokens = float(capacity)
        self._last_refill = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                self.capacity, self._tokens + elapsed * self.refill_per_s
            )
            self._last_refill = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; False means shed the request."""
        if tokens <= 0:
            raise ValueError(f"tokens must be > 0, got {tokens}")
        self._refill()
        if self._tokens < tokens:
            return False
        self._tokens -= tokens
        return True

    def retry_after_s(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will have refilled — the 429 hint."""
        self._refill()
        deficit = max(0.0, tokens - self._tokens)
        return deficit / self.refill_per_s
