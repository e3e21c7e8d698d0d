"""Phase profiling: timer context managers feeding phase histograms.

The trainer's two phases per iteration (``train.fill`` and
``train.update``) are timed through a :class:`PhaseProfiler`:
cumulative per-phase totals always, and — when a
:class:`~repro.obs.registry.MetricsRegistry` is attached — a
``repro_phase_seconds`` histogram labelled by phase that the benchmarks
consume.  All clock reads go through the injectable obs clock, so the
profiler is deterministic under a fake clock and adds nothing but two
clock reads per timed section.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.analysis import tsan
from repro.obs.clock import Clock, monotonic
from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["PHASE_BUCKETS", "PhaseProfiler"]

#: Histogram buckets (seconds) sized for fill/update phase durations.
PHASE_BUCKETS: tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)


class PhaseProfiler:
    """Accumulates named-phase wall time; optionally exports histograms."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        clock: Clock = monotonic,
        metric_name: str = "repro_phase_seconds",
    ) -> None:
        self.clock = clock
        self._lock = tsan.TrackedLock("obs.profile")
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._histogram: Histogram | None = None
        if registry is not None:
            self._histogram = registry.histogram(
                metric_name,
                "Wall seconds per instrumented phase.",
                labelnames=("phase",),
                buckets=PHASE_BUCKETS,
            )

    def observe(self, phase: str, seconds: float) -> None:
        """Record a phase duration measured by the caller."""
        with self._lock:
            tsan.note(self, "_totals", write=True)
            self._totals[phase] = self._totals.get(phase, 0.0) + seconds
            self._counts[phase] = self._counts.get(phase, 0) + 1
        if self._histogram is not None:
            self._histogram.observe(seconds, phase=phase)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a with-block as one observation of ``name``."""
        start = self.clock()
        try:
            yield
        finally:
            self.observe(name, self.clock() - start)

    def totals(self) -> dict[str, float]:
        """Cumulative seconds per phase."""
        with self._lock:
            return dict(self._totals)

    def counts(self) -> dict[str, int]:
        """Observations per phase."""
        with self._lock:
            return dict(self._counts)

    def fractions(self) -> dict[str, float]:
        """Each phase's share of the total instrumented time (sums to 1)."""
        with self._lock:
            total = sum(self._totals.values())
            if total <= 0.0:
                return {phase: 0.0 for phase in self._totals}
            return {
                phase: seconds / total
                for phase, seconds in self._totals.items()
            }
