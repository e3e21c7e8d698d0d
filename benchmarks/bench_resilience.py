"""Bench: overhead of the resilience primitives on the serving hot path.

Every ``/select`` request pays for a token-bucket acquire, a deadline
construction plus a handful of ``remaining()``/``expired`` checks, and
each ``/reload`` for the circuit breaker's ``allow()`` and one
``record_success()``/``record_failure()``.  These primitives only earn
their keep if they are effectively free next to a model forward pass, so
this bench measures each one in isolation:

* **Deadline** — construct + check throughput, i.e. how many budget
  checks per second the batcher can afford between lockstep chunks;
* **TokenBucket** — ``try_acquire`` throughput in the always-admit and
  always-shed regimes (the shed path must be cheap: it runs hottest
  precisely when the server is overloaded);
* **CircuitBreaker** — ``call`` wrapping a no-op vs the bare no-op, as
  closed-state overhead per guarded call (``call`` is ``allow()`` plus
  one ``record_*``, the protocol ``/reload`` runs inline);
* **Retry** — ``call`` around a first-try success, the steady-state cost
  of wrapping model loads.

Writes ``BENCH_resilience.json`` at the repo root::

    python benchmarks/bench_resilience.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.io.resilience import (  # noqa: E402
    CircuitBreaker,
    Deadline,
    Retry,
    TokenBucket,
)

REPEATS = 5
N_OPS = 200_000
#: The overhead bar: every primitive must clear this many ops/s, i.e.
#: cost under ~10 microseconds per call — noise next to a Q-forward.
MIN_OPS_PER_S = 100_000.0


def best_rate(fn, n_ops: int = N_OPS, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` throughput of ``fn(n_ops)`` in ops/s."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(n_ops)
        best = min(best, time.perf_counter() - start)
    return n_ops / best


def bench_deadline() -> dict:
    def construct(n: int) -> None:
        for _ in range(n):
            Deadline.after_ms(50.0)

    deadline = Deadline(3600.0)

    def check(n: int) -> None:
        for _ in range(n):
            if deadline.expired:
                raise AssertionError("hour-long deadline expired mid-bench")
            deadline.remaining()

    return {
        "construct_per_s": round(best_rate(construct), 1),
        "check_per_s": round(best_rate(check), 1),
    }


def bench_token_bucket() -> dict:
    admitting = TokenBucket(capacity=float(N_OPS * REPEATS + 1),
                            refill_per_s=1e-9)

    def admit(n: int) -> None:
        for _ in range(n):
            admitting.try_acquire()

    empty = TokenBucket(capacity=1.0, refill_per_s=1e-9)
    empty.try_acquire()  # drain it: every acquire below is a shed

    def shed(n: int) -> None:
        for _ in range(n):
            if empty.try_acquire():
                raise AssertionError("drained slow-refill bucket admitted")

    return {
        "admit_per_s": round(best_rate(admit), 1),
        "shed_per_s": round(best_rate(shed), 1),
    }


def bench_circuit_breaker() -> dict:
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=30.0)

    def noop() -> None:
        return None

    def bare(n: int) -> None:
        for _ in range(n):
            noop()

    def guarded(n: int) -> None:
        for _ in range(n):
            breaker.call(noop)

    bare_rate = best_rate(bare)
    guarded_rate = best_rate(guarded)
    return {
        "bare_call_per_s": round(bare_rate, 1),
        "guarded_call_per_s": round(guarded_rate, 1),
        "overhead_us_per_call": round(
            (1.0 / guarded_rate - 1.0 / bare_rate) * 1e6, 3
        ),
    }


def bench_retry() -> dict:
    retry = Retry(max_attempts=3, base_delay_s=0.05, seed=0)

    def noop() -> None:
        return None

    def first_try(n: int) -> None:
        for _ in range(n):
            retry.call(noop)

    return {"first_try_call_per_s": round(best_rate(first_try), 1)}


def main() -> int:
    sections = {
        "deadline": bench_deadline,
        "token_bucket": bench_token_bucket,
        "circuit_breaker": bench_circuit_breaker,
        "retry": bench_retry,
    }
    report: dict = {
        "bench": "resilience",
        "spec": {"n_ops": N_OPS, "repeats": REPEATS,
                 "min_ops_per_s": MIN_OPS_PER_S},
    }
    slow: list[str] = []
    for name, fn in sections.items():
        entry = fn()
        report[name] = entry
        print(f"{name}: " + ", ".join(
            f"{key}={value}" for key, value in entry.items()
        ))
        for key, value in entry.items():
            if key.endswith("_per_s") and value < MIN_OPS_PER_S:
                slow.append(f"{name}.{key}={value}")

    out = REPO_ROOT / "BENCH_resilience.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if slow:
        print("WARNING: primitives below the overhead bar: " + ", ".join(slow))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
