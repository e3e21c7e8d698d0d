"""Serving telemetry: the selection server's counters and ``/metrics`` page.

:class:`ServeMetrics` keeps its counters and gauges as plain attributes
(``requests_total``, ``batch_sizes``, ``shed_total``, ...), changes them
under one lock in its ``observe_*`` methods, and renders the ``/metrics``
page itself in Prometheus text format 0.0.4: the counter and gauge
families from the ``(name, type, help, attribute)`` table :data:`_PAGE`,
then the latency histogram, then the provider-backed gauges
(circuit-breaker state, representation-cache hit rate).

Two complementary latency views:

* **cumulative bucket counts** over fixed log-spaced boundaries — cheap,
  mergeable, never lose history;
* **a sliding window** of recent observations — exact p50/p99 over the
  last ``window`` requests, which is what an operator watching a dashboard
  actually wants (a lifetime-cumulative p99 hides a fresh regression).

Both live in :class:`LatencyHistogram` (instance-owned, event-loop
confined) and are rendered at scrape time, so nothing is copied per
observation.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Iterator, Mapping

from repro.analysis import tsan

#: Upper bounds (milliseconds) of the cumulative latency buckets.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0, math.inf,
)

#: Numeric encoding of circuit-breaker states for the gauge exposition.
BREAKER_STATE_VALUES: dict[str, int] = {"closed": 0, "half_open": 1, "open": 2}

#: The counter and gauge families of ``/metrics`` in page order:
#: ``(name, type, help, attribute)``.  A dict attribute renders one series
#: per key, labelled ``_LABELS[attribute]``, in label-string order.
_PAGE: tuple[tuple[str, str, str, str], ...] = (
    ("repro_serve_requests_total", "counter",
     "Selection requests completed.", "requests_total"),
    ("repro_serve_errors_total", "counter",
     "Requests that failed with an error.", "errors_total"),
    ("repro_serve_batches_total", "counter",
     "Micro-batcher flushes executed.", "batches_total"),
    ("repro_serve_queue_depth", "gauge",
     "Admission queue depth (last observed).", "queue_depth"),
    ("repro_serve_queue_depth_peak", "gauge",
     "Highest observed queue depth.", "queue_depth_peak"),
    ("repro_serve_batch_size_total", "counter",
     "Flushes by batch size.", "batch_sizes"),
    ("repro_serve_shed_total", "counter",
     "Requests shed by admission control, by reason.", "shed_total"),
    ("repro_serve_deadline_exceeded_total", "counter",
     "Requests rejected or abandoned on an expired deadline.",
     "deadline_exceeded_total"),
    ("repro_serve_watchdog_restarts_total", "counter",
     "Flush-loop restarts performed by the batcher watchdog.",
     "watchdog_restarts_total"),
    ("repro_serve_dropped_connections_total", "counter",
     "Client connections that vanished mid-request.",
     "dropped_connections_total"),
    ("repro_serve_breaker_transitions_total", "counter",
     "Circuit-breaker state transitions (any direction).",
     "breaker_transitions_total"),
)
_LABELS = {"batch_sizes": "size", "shed_total": "reason"}


def _label_order(series: dict) -> dict:
    """A copy of ``series`` in label-string order (``"10"`` before ``"2"``)."""
    return dict(sorted(series.items(), key=lambda item: str(item[0])))


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class LatencyHistogram:
    """Cumulative log-bucket histogram plus an exact sliding window."""

    def __init__(
        self,
        buckets_ms: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
        window: int = 2048,
    ) -> None:
        if not buckets_ms:
            raise ValueError("need at least one bucket boundary")
        if list(buckets_ms) != sorted(buckets_ms):
            raise ValueError("bucket boundaries must be ascending")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.buckets_ms = tuple(buckets_ms)
        self.counts = [0] * len(self.buckets_ms)
        self.total = 0
        self.sum_ms = 0.0
        self._window: deque[float] = deque(maxlen=window)

    def observe(self, value_ms: float) -> None:
        """Record one latency observation (milliseconds)."""
        value_ms = float(value_ms)
        self.total += 1
        self.sum_ms += value_ms
        self._window.append(value_ms)
        for index, bound in enumerate(self.buckets_ms):
            if value_ms <= bound:
                self.counts[index] += 1
                break

    def percentile(self, q: float) -> float:
        """Exact q-quantile (0..1) over the sliding window; 0.0 when empty.

        Nearest-rank on the sorted window — the estimator dashboards
        expect, and exact for the window it covers.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self._window:
            return 0.0
        ordered = sorted(self._window)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    @property
    def window_size(self) -> int:
        return len(self._window)

    def snapshot(self) -> dict:
        return {
            "count": self.total,
            "sum_ms": round(self.sum_ms, 6),
            "p50_ms": round(self.percentile(0.50), 6),
            "p99_ms": round(self.percentile(0.99), 6),
            "buckets": {
                ("+Inf" if math.isinf(bound) else f"{bound:g}"): count
                for bound, count in zip(self.buckets_ms, self.counts)
            },
        }


class ServeMetrics:
    """The selection server's counters, gauges and ``/metrics`` page."""

    def __init__(self) -> None:
        self._lock = tsan.TrackedLock("serve.metrics")
        self.requests_total = 0
        self.errors_total = 0
        self.batches_total = 0
        self.queue_depth = 0
        self.queue_depth_peak = 0
        #: Flushes by batch size, ``{size: count}``.
        self.batch_sizes: dict[int, int] = {}
        #: Shed requests by reason; the standard reasons start at 0 so
        #: operators see the series before the first shed.
        self.shed_total: dict[str, int] = {"queue_full": 0, "rate_limit": 0}
        self.deadline_exceeded_total = 0
        self.watchdog_restarts_total = 0
        self.dropped_connections_total = 0
        self.breaker_transitions_total = 0
        #: queue-wait + batch-execution time per request.
        self.request_latency = LatencyHistogram()
        self._cache_stats: Callable[[], Mapping[str, int]] | None = None
        self._breaker_state: Callable[[], str] | None = None

    # -- recording ------------------------------------------------------
    def _count(self, attribute: str) -> None:
        with self._lock:
            tsan.note(self, attribute, write=True)
            setattr(self, attribute, getattr(self, attribute) + 1)

    def observe_request(self, latency_ms: float) -> None:
        self._count("requests_total")
        self.request_latency.observe(latency_ms)

    def observe_error(self) -> None:
        self._count("errors_total")

    def observe_shed(self, reason: str = "queue_full") -> None:
        with self._lock:
            tsan.note(self, "shed_total", write=True)
            self.shed_total[reason] = self.shed_total.get(reason, 0) + 1

    def observe_deadline_exceeded(self) -> None:
        self._count("deadline_exceeded_total")

    def observe_watchdog_restart(self) -> None:
        self._count("watchdog_restarts_total")

    def observe_dropped_connection(self) -> None:
        self._count("dropped_connections_total")

    def observe_breaker_transition(self, old_state: str, new_state: str) -> None:
        del old_state, new_state  # the transition count is state-agnostic
        self._count("breaker_transitions_total")

    def observe_batch(self, size: int) -> None:
        with self._lock:
            tsan.note(self, "batch_sizes", write=True)
            self.batches_total += 1
            self.batch_sizes[int(size)] = self.batch_sizes.get(int(size), 0) + 1

    def observe_queue_depth(self, depth: int) -> None:
        with self._lock:
            tsan.note(self, "queue_depth", write=True)
            self.queue_depth = int(depth)
            self.queue_depth_peak = max(self.queue_depth_peak, self.queue_depth)

    def set_cache_stats_provider(
        self, provider: Callable[[], Mapping[str, int]]
    ) -> None:
        """Hook the registry's representation-cache counters in lazily."""
        self._cache_stats = provider

    def set_breaker_state_provider(self, provider: Callable[[], str]) -> None:
        """Hook the reload circuit breaker's state in lazily."""
        self._breaker_state = provider

    # -- reading --------------------------------------------------------
    def cache_hit_rate(self) -> float | None:
        """Representation-cache hit rate in [0, 1], or None when unwired."""
        if self._cache_stats is None:
            return None
        stats = self._cache_stats()
        lookups = int(stats.get("hits", 0)) + int(stats.get("misses", 0))
        if lookups == 0:
            return 0.0
        return int(stats.get("hits", 0)) / lookups

    def snapshot(self) -> dict:
        with self._lock:
            data = {
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "batches_total": self.batches_total,
                "batch_sizes": _label_order(self.batch_sizes),
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
                "shed_total": _label_order(self.shed_total),
                "deadline_exceeded_total": self.deadline_exceeded_total,
                "watchdog_restarts_total": self.watchdog_restarts_total,
                "dropped_connections_total": self.dropped_connections_total,
                "breaker_transitions_total": self.breaker_transitions_total,
            }
        data["latency"] = self.request_latency.snapshot()
        if self._breaker_state is not None:
            data["breaker_state"] = self._breaker_state()
        hit_rate = self.cache_hit_rate()
        if hit_rate is not None:
            data["cache_hit_rate"] = round(hit_rate, 6)
            assert self._cache_stats is not None
            data["cache"] = dict(self._cache_stats())
        return data

    def render(self) -> str:
        """The ``/metrics`` page in Prometheus text format (trailing newline)."""
        lines: list[str] = []
        with self._lock:
            for name, kind, help_text, attribute in _PAGE:
                lines += [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
                value = getattr(self, attribute)
                if attribute not in _LABELS:
                    lines.append(f"{name} {value}")
                    continue
                label = _LABELS[attribute]
                for key, count in _label_order(value).items():
                    lines.append(f'{name}{{{label}="{_escape(str(key))}"}} {count}')
        lines.extend(self._latency_lines())
        lines.extend(self._provider_lines())
        return "\n".join(lines) + "\n"

    # -- scrape-time views ----------------------------------------------
    def _latency_lines(self) -> Iterator[str]:
        """The dual-view latency histogram: window quantiles + cumulative
        buckets, rendered at scrape time from the instance-owned state."""
        latency = self.request_latency
        yield "# TYPE repro_serve_latency_ms summary"
        yield (
            f'repro_serve_latency_ms{{quantile="0.5"}} '
            f"{latency.percentile(0.5):.6f}"
        )
        yield (
            f'repro_serve_latency_ms{{quantile="0.99"}} '
            f"{latency.percentile(0.99):.6f}"
        )
        yield f"repro_serve_latency_ms_sum {latency.sum_ms:.6f}"
        yield f"repro_serve_latency_ms_count {latency.total}"
        yield "# TYPE repro_serve_latency_ms_bucket counter"
        cumulative = 0
        for bound, count in zip(latency.buckets_ms, latency.counts):
            cumulative += count
            label = "+Inf" if math.isinf(bound) else f"{bound:g}"
            yield f'repro_serve_latency_ms_bucket{{le="{label}"}} {cumulative}'

    def _provider_lines(self) -> Iterator[str]:
        """Provider-backed gauges: breaker state and cache hit rate."""
        if self._breaker_state is not None:
            state = self._breaker_state()
            value = BREAKER_STATE_VALUES.get(state, -1)
            yield "# HELP repro_serve_breaker_state 0=closed 1=half_open 2=open"
            yield "# TYPE repro_serve_breaker_state gauge"
            yield f"repro_serve_breaker_state {value}"
        hit_rate = self.cache_hit_rate()
        if hit_rate is not None:
            yield "# TYPE repro_serve_cache_hit_rate gauge"
            yield f"repro_serve_cache_hit_rate {hit_rate:.6f}"
