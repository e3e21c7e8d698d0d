"""Env-toggled runtime thread sanitizer for the serve stack.

The ASYNC9xx static pass (``tools/repolint``) proves the *absence* of
whole hazard classes at review time; this module validates those verdicts
dynamically.  With ``REPRO_TSAN`` set (``1``/``true``/``on``/``yes``) the
instrumented code paths record every cross-context access to shared serve
state — which thread touched which attribute, reading or writing, holding
which locks — and :func:`violations` replays the classic lockset check
over what *actually happened* during a run.  The chaos suite runs once
with the sanitizer armed and asserts the report is empty, and the
``tsan`` CI lane reruns tier-1 and ``-m fault`` with it armed, where the
per-test conftest gate fails any test that observed a violation.  The
training-side locks (reward cache, ITS visit counter, ITE ``record``)
are ``TrackedLock`` s too, so that lane checks them alongside the serve
executor threads.  With the flag unset (the default and the production
configuration) every probe is a single module-level boolean test.

Three hooks feed the recorder:

* :func:`register_loop` — marks the calling thread as the event-loop
  thread (the server calls it from ``start``); accesses from that thread
  are classified ``loop``, all others ``thread``.
* :class:`TrackedLock` — a ``threading.Lock`` wrapper that maintains the
  per-thread held-lock set the lockset check intersects.  It is a real
  lock even when the sanitizer is off, so instrumented code needs no
  branching.
* :func:`note` — records one attribute access on behalf of the caller.

A **violation** is an attribute observed from more than one context with
at least one write and no lock common to every access — the dynamic twin
of repolint's ASYNC902.  Single-context traffic (however interleaved) is
the event loop's own business and never reported.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from types import TracebackType

__all__ = [
    "TSAN_ENV_VAR",
    "AccessRecord",
    "TrackedLock",
    "Violation",
    "note",
    "register_loop",
    "reset",
    "set_tsan_enabled",
    "tsan_enabled",
    "violations",
]

TSAN_ENV_VAR = "REPRO_TSAN"

# The recorder is process-global on purpose: it observes every thread in
# the process, so its state cannot live on any one instance.  PAR602's
# "no module-level mutation" contract is therefore waived for this file —
# the recorder itself is lock-protected and never touched by training.
# repolint: disable-file=PAR602

_TRUTHY = {"1", "true", "on", "yes"}

_enabled: bool = os.environ.get(TSAN_ENV_VAR, "").strip().lower() in _TRUTHY

#: Guards the recorder's own state — the sanitizer must not race with the
#: races it is hunting.
_state_lock = threading.Lock()
_loop_thread_ids: set[int] = set()
_records: dict[tuple[str, str], list["AccessRecord"]] = {}
_held = threading.local()


@dataclass(frozen=True)
class AccessRecord:
    """One observed access to ``owner.attr``."""

    owner: str
    attr: str
    context: str  # "loop" | "thread"
    thread_id: int
    write: bool
    locks: frozenset[str]


@dataclass(frozen=True)
class Violation:
    """An attribute written across contexts with an empty common lockset."""

    owner: str
    attr: str
    contexts: frozenset[str]
    accesses: tuple[AccessRecord, ...]

    def describe(self) -> str:
        writers = sorted(
            {record.context for record in self.accesses if record.write}
        )
        return (
            f"{self.owner}.{self.attr}: accessed from "
            f"{'/'.join(sorted(self.contexts))} (writes from "
            f"{'/'.join(writers)}) with no common lock"
        )


def tsan_enabled() -> bool:
    """Whether the runtime sanitizer is currently recording."""
    return _enabled


def set_tsan_enabled(enabled: bool) -> bool:
    """Toggle the sanitizer at runtime (tests); returns the old value.

    Process-global configuration like ``np.seterr`` — flipped at startup
    or around a test, never from the serving path.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def reset() -> None:
    """Drop every recorded access and loop registration (test isolation)."""
    with _state_lock:
        _records.clear()
        _loop_thread_ids.clear()


def register_loop() -> None:
    """Classify the calling thread's accesses as event-loop context."""
    if not _enabled:
        return
    with _state_lock:
        _loop_thread_ids.add(threading.get_ident())


def _held_locks() -> set[str]:
    locks: set[str] | None = getattr(_held, "locks", None)
    if locks is None:
        locks = set()
        _held.locks = locks
    return locks


def note(owner: object, attr: str, *, write: bool = False) -> None:
    """Record one access to ``owner.attr`` from the calling thread."""
    if not _enabled:
        return
    label = f"{type(owner).__name__}#{id(owner):x}"
    thread_id = threading.get_ident()
    with _state_lock:
        context = "loop" if thread_id in _loop_thread_ids else "thread"
        _records.setdefault((label, attr), []).append(
            AccessRecord(
                owner=label,
                attr=attr,
                context=context,
                thread_id=thread_id,
                write=write,
                locks=frozenset(_held_locks()),
            )
        )


class TrackedLock:
    """A ``threading.Lock`` that feeds the sanitizer's held-lock sets.

    Always a real lock; the tracking is the only part gated on the
    sanitizer flag.  Non-reentrant, like the lock it wraps.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def __enter__(self) -> "TrackedLock":
        self._lock.acquire()
        if _enabled:
            _held_locks().add(self.name)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if _enabled:
            _held_locks().discard(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()


def violations() -> list[Violation]:
    """Lockset check over everything recorded so far.

    An ``(owner, attr)`` pair is violating when its accesses span more
    than one context, include a write, and share no common lock.
    """
    found: list[Violation] = []
    with _state_lock:
        snapshot = {key: tuple(records) for key, records in _records.items()}
    for (owner, attr), records in sorted(snapshot.items()):
        contexts = {record.context for record in records}
        if len(contexts) < 2:
            continue
        if not any(record.write for record in records):
            continue
        common: set[str] = set(records[0].locks)
        for record in records[1:]:
            common.intersection_update(record.locks)
        if common:
            continue
        found.append(
            Violation(
                owner=owner,
                attr=attr,
                contexts=frozenset(contexts),
                accesses=records,
            )
        )
    return found
