"""Lightweight span/trace API emitting JSONL, deterministic by design.

A :class:`Tracer` writes one JSON object per finished span to a sink
(path or file-like).  Three properties matter more than feature count:

* **Injectable clock.**  All timing flows through the ``clock`` callable
  (default :func:`repro.obs.clock.monotonic`) — obs is the single
  sanctioned clock boundary, and tests drive traces with fake clocks.
* **Deterministic identity.**  Span ids are sequential integers minted
  under a lock; the trace id is the caller-supplied ``run_id``.  No
  randomness, no wall-clock ids — two runs of the same workload produce
  structurally identical traces (only durations differ), and tracing
  consumes zero RNG (the non-interference contract).
* **Near-zero cost when disabled.**  :data:`NULL_TRACER` hands out one
  shared no-op span; a disabled ``tracer.span(...)`` is an attribute
  check and a constant return, cheap enough to leave on hot paths.

Spans are the one timing source for training: besides writing each
finished span, the tracer keeps cumulative seconds per span name, and
:meth:`Tracer.totals` is what the telemetry phase fractions are computed
from.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Mapping

from repro.analysis import tsan
from repro.obs.clock import Clock, monotonic

__all__ = ["NULL_TRACER", "Span", "Tracer", "read_trace"]


class Span:
    """One in-flight span; a context manager that reports to its tracer."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "attrs", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: Mapping[str, Any],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = dict(attrs)
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = self.tracer.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = self.tracer.clock()
        self.tracer._record(self, self._start, end - self._start)


class _NullSpan:
    """The shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    span_id = 0
    parent_id: int | None = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Writes finished spans as JSONL; safe to share across threads."""

    def __init__(
        self,
        sink: str | Path | IO[str] | None,
        run_id: str = "run",
        clock: Clock = monotonic,
    ) -> None:
        self.run_id = run_id
        self.clock = clock
        self.enabled = sink is not None
        self._lock = tsan.TrackedLock("obs.trace")
        self._next_id = 1
        self._totals: dict[str, float] = {}
        self._owns_sink = False
        self._sink: IO[str] | None = None
        if isinstance(sink, (str, Path)):
            path = Path(sink)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = path.open("a", encoding="utf-8")
            self._owns_sink = True
        elif sink is not None:
            self._sink = sink
        # Offsets in the emitted records are relative to the tracer epoch,
        # so traces are small, diffable numbers rather than raw monotonic
        # readings whose origin is platform-defined.
        self._epoch = self.clock() if self.enabled else 0.0

    # -- span lifecycle -------------------------------------------------
    def span(
        self,
        name: str,
        parent: "Span | _NullSpan | int | None" = None,
        **attrs: Any,
    ) -> "Span | _NullSpan":
        """Open a span; use as ``with tracer.span("fill") as s: ...``."""
        if not self.enabled:
            return _NULL_SPAN
        parent_id = parent.span_id if isinstance(parent, (Span, _NullSpan)) else parent
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, span_id, parent_id or None, name, attrs)

    def _record(self, span: Span, start: float, duration: float) -> None:
        if not self.enabled:
            return
        record = {
            "trace": self.run_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start_s": round(start - self._epoch, 9),
            "duration_s": round(duration, 9),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            tsan.note(self, "_totals", write=True)
            self._totals[span.name] = self._totals.get(span.name, 0.0) + duration
            if self._sink is not None:
                tsan.note(self, "_sink", write=True)
                self._sink.write(line + "\n")

    def totals(self) -> dict[str, float]:
        """Cumulative seconds of every finished span, keyed by span name."""
        with self._lock:
            return dict(self._totals)

    def flush(self) -> None:
        if self._sink is not None:
            with self._lock:
                self._sink.flush()

    def close(self) -> None:
        if self._sink is not None and self._owns_sink:
            with self._lock:
                self._sink.close()
                self._sink = None
        self.enabled = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: The module-wide disabled tracer: hand this to components by default so
#: instrumentation points need no ``if tracer is not None`` forks.
NULL_TRACER = Tracer(None)


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL trace file back into a list of span records."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
