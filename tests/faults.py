"""Fault-injection and chaos helpers for crash-safety and overload testing.

Small, dependency-light primitives used by ``tests/test_fault_injection.py``,
``tests/test_io.py``, ``tests/test_serve_server.py`` and the serving chaos
suite (``tests/test_chaos_serving.py``) to simulate the failure modes the
checkpoint and serving subsystems defend against:

* :class:`CrashAt` — a ``stop_check``-style callable that raises
  :class:`SimulatedCrash` on its N-th invocation, modelling a hard kill
  (``kill -9`` / OOM / power loss) at training iteration N with **no**
  opportunity to flush state.
* :func:`truncate_file` — cut an artifact short, modelling a crash or full
  disk mid-write on a non-atomic writer.
* :func:`flip_bit` — flip one bit in place, modelling silent media or
  transfer corruption that leaves the file length intact.
* :class:`LatencyStorm` — a seeded, toggleable delay schedule wrapped
  around a callable, modelling a slow disk or a GC/IO stall in the
  inference handler (the delays block exactly like real slowness would).
* :class:`ScheduledFailures` — raise on chosen call indices, modelling
  intermittent mid-batch exceptions that must fail one batch, not the
  process.
* :func:`corrupt_model_artifact` — flip a bit inside a saved model's
  weights, modelling a corrupt published version the registry must skip.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np


class SimulatedCrash(RuntimeError):
    """An injected failure standing in for a real process/machine crash."""


class CrashAt:
    """Raise :class:`SimulatedCrash` on the ``at_call``-th invocation.

    Passed as ``stop_check`` to :meth:`repro.core.pafeat.PAFeat.fit`, which
    consults it once per training iteration — so ``CrashAt(7)`` kills the
    run at iteration 7 before any end-of-iteration checkpoint flush,
    exactly like an uncatchable signal would.
    """

    def __init__(self, at_call: int) -> None:
        if at_call < 1:
            raise ValueError(f"at_call must be >= 1, got {at_call}")
        self.at_call = at_call
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        if self.calls >= self.at_call:
            raise SimulatedCrash(f"injected crash at call {self.calls}")
        return False


def truncate_file(path: str | Path, keep_bytes: int) -> Path:
    """Truncate ``path`` to its first ``keep_bytes`` bytes."""
    path = Path(path)
    if keep_bytes < 0:
        raise ValueError(f"keep_bytes must be >= 0, got {keep_bytes}")
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(min(keep_bytes, size))
    return path


def flip_bit(path: str | Path, byte_offset: int | None = None, bit: int = 0) -> Path:
    """Flip one bit of ``path`` in place (default: middle byte, bit 0)."""
    if not 0 <= bit <= 7:
        raise ValueError(f"bit must be in [0, 7], got {bit}")
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot flip a bit in empty file {path}")
    offset = len(data) // 2 if byte_offset is None else byte_offset
    if not 0 <= offset < len(data):
        raise ValueError(f"byte_offset {offset} out of range for {len(data)} bytes")
    data[offset] ^= 1 << bit
    with open(path, "wb") as handle:
        handle.write(bytes(data))
        handle.flush()
        os.fsync(handle.fileno())
    return path


def corrupt_model_artifact(
    artifact_dir: str | Path, filename: str = "weights.npz"
) -> Path:
    """Flip one bit inside a saved model artifact's payload file.

    The manifest checksums written by :func:`repro.save_model` still
    describe the original bytes, so any subsequent checksum-verified load
    of this version must fail — the registry-fallback scenario.
    """
    target = Path(artifact_dir) / filename
    if not target.is_file():
        raise FileNotFoundError(f"artifact payload {target} does not exist")
    return flip_bit(target)


class LatencyStorm:
    """Seeded, toggleable latency injection around a synchronous callable.

    While :attr:`active`, each wrapped call first blocks for a delay drawn
    uniformly from ``[min_delay_s, max_delay_s]`` out of a seeded
    :class:`numpy.random.Generator` — the schedule replays exactly for a
    given seed.  Blocking is the point: a slow model load or a stalled
    disk blocks the caller just like this does.  ``sleep`` is injectable
    so unit tests can record the schedule instead of waiting it out.
    """

    def __init__(
        self,
        min_delay_s: float,
        max_delay_s: float,
        *,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if min_delay_s < 0:
            raise ValueError(f"min_delay_s must be >= 0, got {min_delay_s}")
        if max_delay_s < min_delay_s:
            raise ValueError("max_delay_s must be >= min_delay_s")
        self.min_delay_s = min_delay_s
        self.max_delay_s = max_delay_s
        self.active = False
        self.calls_delayed = 0
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep

    def next_delay(self) -> float:
        """Draw the next delay from the seeded schedule."""
        span = self.max_delay_s - self.min_delay_s
        return self.min_delay_s + span * float(self._rng.random())

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with storm delays injected before every call while active."""

        def stormy(*args: Any, **kwargs: Any) -> Any:
            if self.active:
                self.calls_delayed += 1
                self._sleep(self.next_delay())
            return fn(*args, **kwargs)

        return stormy


class ScheduledFailures:
    """Raise :class:`SimulatedCrash` on chosen call indices (1-based).

    Wrapping a batch handler with ``ScheduledFailures({2, 5})`` makes its
    2nd and 5th invocations explode mid-batch — the "one bad batch must
    not kill the worker, and must never emit a partial response" drill.
    """

    def __init__(self, at_calls: Iterable[int]) -> None:
        self.at_calls = frozenset(int(n) for n in at_calls)
        if any(n < 1 for n in self.at_calls):
            raise ValueError("call indices are 1-based and must be >= 1")
        self.calls = 0
        self.failures = 0

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def flaky(*args: Any, **kwargs: Any) -> Any:
            self.calls += 1
            if self.calls in self.at_calls:
                self.failures += 1
                raise SimulatedCrash(f"injected mid-batch failure at call {self.calls}")
            return fn(*args, **kwargs)

        return flaky
