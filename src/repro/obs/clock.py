"""The observability layer's sanctioned clock boundary.

Determinism discipline (repolint RNG104 and its OBS1102 monotonic twin)
bans ad-hoc clock reads: a timestamp that leaks into control flow breaks
bit-exact replay.  Timing for metrics, traces, resilience deadlines and
the experiments' Table II timings is still wanted, so this module is the
*single* sanctioned place such reads happen; OBS1102 holds every other
module of ``repro`` to it.  Every obs primitive takes a ``clock``
callable defaulting to :func:`monotonic`, which makes two things true at
once:

* production code reads time in exactly one module, easy to audit; and
* tests and benchmarks inject a fake clock and get fully deterministic
  traces/telemetry (the non-interference contract is testable).

Only monotonic time is exposed — wall-clock timestamps stay banned
everywhere outside the CLI/experiment boundary.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Clock", "monotonic"]

#: Signature of an injectable time source (seconds, monotonic).
Clock = Callable[[], float]


def monotonic() -> float:
    """Monotonic seconds — the one production clock read in ``repro``."""
    return time.monotonic()
