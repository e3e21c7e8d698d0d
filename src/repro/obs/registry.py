"""Thread-safe, label-aware metrics with Prometheus text exposition.

One :class:`MetricsRegistry` per process (or per server) owns every
:class:`Counter` and :class:`Gauge`; ``render()`` emits the whole
registry as Prometheus text-format 0.0.4 so ``/metrics`` can serve a
single unified page for the serve stack, the model registry and anything
else that registers.

Design points:

* **Label-aware series.**  A metric with ``labelnames=("reason",)`` holds
  one numeric series per observed label-value tuple; exposition escapes
  label values per the Prometheus spec (``\\`` → ``\\\\``, ``"`` → ``\\"``,
  newline → ``\\n``).
* **Real locks.**  All series maps mutate under a
  :class:`repro.analysis.tsan.TrackedLock`, so the runtime thread
  sanitizer sees the guard and cross-thread scrapes (the server reads
  from the event loop while reload work runs in executor threads) are
  provably serialized.
* **Collectors.**  ``register_collector`` accepts a callable returning
  extra exposition lines at scrape time — how provider-backed values
  (circuit-breaker state, cache hit rate) and the dual-view
  :class:`~repro.serve.metrics.LatencyHistogram`, the package's one
  histogram, join the unified page without copying state on every
  observation.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Mapping, Sequence

from repro.analysis import tsan

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "escape_label_value",
]

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if value == int(value) and math.isfinite(value):
        return str(int(value))
    return repr(value)


class _Metric:
    """Shared machinery: named, typed, label-aware series under one lock."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: tsan.TrackedLock,
    ) -> None:
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_PATTERN.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._series: dict[tuple[str, ...], float] = {}

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def value(self, **labels: object) -> float:
        """Current value of one series (0.0 if never touched)."""
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def series(self) -> dict[tuple[str, ...], float]:
        """Snapshot of every series, keyed by label-value tuple."""
        with self._lock:
            return dict(self._series)

    def touch(self, **labels: object) -> None:
        """Materialise a series at 0 so it renders before first increment."""
        key = self._key(labels)
        with self._lock:
            tsan.note(self, "_series", write=True)
            self._series.setdefault(key, 0.0)

    # -- exposition -----------------------------------------------------
    def _sample_line(self, key: tuple[str, ...], value: float) -> str:
        if not self.labelnames:
            return f"{self.name} {_format_value(value)}"
        labels = ",".join(
            f'{name}="{escape_label_value(text)}"'
            for name, text in zip(self.labelnames, key)
        )
        return f"{self.name}{{{labels}}} {_format_value(value)}"

    def render(self) -> list[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            items = sorted(self._series.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(self._sample_line(key, value))
        return lines


class Counter(_Metric):
    """Monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        key = self._key(labels)
        with self._lock:
            tsan.note(self, "_series", write=True)
            self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(_Metric):
    """A value that can go up and down (queue depth, breaker state)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            tsan.note(self, "_series", write=True)
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            tsan.note(self, "_series", write=True)
            self._series[key] = self._series.get(key, 0.0) + amount

    def set_max(self, value: float, **labels: object) -> None:
        """Raise the gauge to ``value`` if higher (peak tracking)."""
        key = self._key(labels)
        with self._lock:
            tsan.note(self, "_series", write=True)
            if value > self._series.get(key, 0.0):
                self._series[key] = float(value)


class MetricsRegistry:
    """Owns metrics and collectors; renders one unified exposition page."""

    def __init__(self) -> None:
        self._lock = tsan.TrackedLock("obs.registry")
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], Iterable[str]]] = []

    def _get_or_create(
        self, kind: type, name: str, factory: Callable[[], _Metric]
    ) -> _Metric:
        with self._lock:
            tsan.note(self, "_metrics", write=True)
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind.__name__.lower()}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        metric = self._get_or_create(
            Counter,
            name,
            lambda: Counter(
                name, help_text, labelnames, tsan.TrackedLock(f"obs.{name}")
            ),
        )
        assert isinstance(metric, Counter)
        self._check_labels(metric, labelnames)
        return metric

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        metric = self._get_or_create(
            Gauge,
            name,
            lambda: Gauge(
                name, help_text, labelnames, tsan.TrackedLock(f"obs.{name}")
            ),
        )
        assert isinstance(metric, Gauge)
        self._check_labels(metric, labelnames)
        return metric

    @staticmethod
    def _check_labels(metric: _Metric, labelnames: Sequence[str]) -> None:
        if tuple(labelnames) != metric.labelnames:
            raise ValueError(
                f"metric {metric.name!r} already registered with labels "
                f"{metric.labelnames}, not {tuple(labelnames)}"
            )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def register_collector(self, collector: Callable[[], Iterable[str]]) -> None:
        """Add a scrape-time source of extra exposition lines."""
        with self._lock:
            tsan.note(self, "_collectors", write=True)
            self._collectors.append(collector)

    def render(self) -> str:
        """The whole registry as Prometheus text format (trailing newline)."""
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        for collector in collectors:
            lines.extend(collector())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, dict[str, object]]:
        """JSON-able view of every registered metric (not collectors)."""
        with self._lock:
            metrics = list(self._metrics.values())
        data: dict[str, dict[str, object]] = {}
        for metric in metrics:
            series = metric.series()
            if metric.labelnames:
                values: object = {
                    ",".join(key): value for key, value in sorted(series.items())
                }
            else:
                values = series.get((), 0.0)
            data[metric.name] = {"kind": metric.kind, "value": values}
        return data
