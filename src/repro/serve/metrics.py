"""Serving telemetry on the unified obs registry (PR 10 refactor).

:class:`ServeMetrics` keeps its recording API (``observe_*``) and its
read surface (``requests_total``, ``batch_sizes``, ``snapshot()``, ...)
but the numbers now live in a :class:`repro.obs.registry.MetricsRegistry`
— the label-aware, lock-guarded metric store shared by the whole serve
stack — so ``/metrics`` serves **one** registry: request/batch/queue
counters, admission-control and resilience counters, provider-backed
gauges (circuit-breaker state, representation-cache hit rate) and
anything else components register.

Two complementary latency views survive the refactor unchanged:

* **cumulative bucket counts** over fixed log-spaced boundaries — cheap,
  mergeable, never lose history;
* **a sliding window** of recent observations — exact p50/p99 over the
  last ``window`` requests, which is what an operator watching a dashboard
  actually wants (a lifetime-cumulative p99 hides a fresh regression).

The window view lives in :class:`LatencyHistogram` (instance-owned, event
-loop-confined as before) and joins the exposition through a registry
collector, so nothing is copied per observation.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Iterator, Mapping

from repro.obs.registry import Counter, Gauge, MetricsRegistry

#: Upper bounds (milliseconds) of the cumulative latency buckets.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0, math.inf,
)

#: Numeric encoding of circuit-breaker states for the gauge exposition.
BREAKER_STATE_VALUES: dict[str, int] = {"closed": 0, "half_open": 1, "open": 2}


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
    """The selection server's metric surface, backed by one obs registry."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        #: The unified registry ``/metrics`` renders; share one instance
        #: to co-expose serve metrics with other components' metrics.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: queue-wait + batch-execution time per request (dual-view
        #: histogram; exposed through a registry collector).
        self.request_latency = LatencyHistogram()
        reg = self.registry
        self._requests: Counter = reg.counter(
            "repro_serve_requests_total", "Selection requests completed."
        )
        self._errors: Counter = reg.counter(
            "repro_serve_errors_total", "Requests that failed with an error."
        )
        self._batches: Counter = reg.counter(
            "repro_serve_batches_total", "Micro-batcher flushes executed."
        )
        self._queue_depth: Gauge = reg.gauge(
            "repro_serve_queue_depth", "Admission queue depth (last observed)."
        )
        self._queue_depth_peak: Gauge = reg.gauge(
            "repro_serve_queue_depth_peak", "Highest observed queue depth."
        )
        self._batch_size: Counter = reg.counter(
            "repro_serve_batch_size_total",
            "Flushes by batch size.",
            labelnames=("size",),
        )
        self._shed: Counter = reg.counter(
            "repro_serve_shed_total",
            "Requests shed by admission control, by reason.",
            labelnames=("reason",),
        )
        # Materialise the standard shed reasons at 0 so operators see the
        # series before the first shed (and dashboards need no fallback).
        self._shed.touch(reason="queue_full")
        self._shed.touch(reason="rate_limit")
        self._deadline: Counter = reg.counter(
            "repro_serve_deadline_exceeded_total",
            "Requests rejected or abandoned on an expired deadline.",
        )
        self._watchdog: Counter = reg.counter(
            "repro_serve_watchdog_restarts_total",
            "Flush-loop restarts performed by the batcher watchdog.",
        )
        self._dropped: Counter = reg.counter(
            "repro_serve_dropped_connections_total",
            "Client connections that vanished mid-request.",
        )
        self._breaker_transitions: Counter = reg.counter(
            "repro_serve_breaker_transitions_total",
            "Circuit-breaker state transitions (any direction).",
        )
        self._cache_stats: Callable[[], Mapping[str, int]] | None = None
        self._breaker_state: Callable[[], str] | None = None
        reg.register_collector(self._latency_lines)
        reg.register_collector(self._provider_lines)

    # -- recording ------------------------------------------------------
    def observe_request(self, latency_ms: float) -> None:
        self._requests.inc()
        self.request_latency.observe(latency_ms)

    def observe_error(self) -> None:
        self._errors.inc()

    def observe_shed(self, reason: str = "queue_full") -> None:
        self._shed.inc(reason=reason)

    def observe_deadline_exceeded(self) -> None:
        self._deadline.inc()

    def observe_watchdog_restart(self) -> None:
        self._watchdog.inc()

    def observe_dropped_connection(self) -> None:
        self._dropped.inc()

    def observe_breaker_transition(self, old_state: str, new_state: str) -> None:
        del old_state, new_state  # the transition count is state-agnostic
        self._breaker_transitions.inc()

    def observe_batch(self, size: int) -> None:
        self._batches.inc()
        self._batch_size.inc(size=int(size))

    def observe_queue_depth(self, depth: int) -> None:
        self._queue_depth.set(depth)
        self._queue_depth_peak.set_max(depth)

    def set_cache_stats_provider(
        self, provider: Callable[[], Mapping[str, int]]
    ) -> None:
        """Hook the registry's representation-cache counters in lazily."""
        self._cache_stats = provider

    def set_breaker_state_provider(self, provider: Callable[[], str]) -> None:
        """Hook the reload circuit breaker's state in lazily."""
        self._breaker_state = provider

    # -- reading (backward-compatible attribute surface) ----------------
    @property
    def requests_total(self) -> int:
        return int(self._requests.value())

    @property
    def errors_total(self) -> int:
        return int(self._errors.value())

    @property
    def batches_total(self) -> int:
        return int(self._batches.value())

    @property
    def batch_sizes(self) -> dict[int, int]:
        """Per-flush batch-size distribution as ``{size: count}``."""
        return {
            int(key[0]): int(count)
            for key, count in sorted(self._batch_size.series().items())
        }

    @property
    def queue_depth(self) -> int:
        return int(self._queue_depth.value())

    @property
    def queue_depth_peak(self) -> int:
        return int(self._queue_depth_peak.value())

    @property
    def shed_total(self) -> dict[str, int]:
        """Shed requests by reason (standard reasons present at 0)."""
        return {
            key[0]: int(count)
            for key, count in sorted(self._shed.series().items())
        }

    @property
    def deadline_exceeded_total(self) -> int:
        return int(self._deadline.value())

    @property
    def watchdog_restarts_total(self) -> int:
        return int(self._watchdog.value())

    @property
    def dropped_connections_total(self) -> int:
        return int(self._dropped.value())

    @property
    def breaker_transitions_total(self) -> int:
        return int(self._breaker_transitions.value())

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
        data = {
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "batches_total": self.batches_total,
            "batch_sizes": self.batch_sizes,
            "queue_depth": self.queue_depth,
            "queue_depth_peak": self.queue_depth_peak,
            "shed_total": self.shed_total,
            "deadline_exceeded_total": self.deadline_exceeded_total,
            "watchdog_restarts_total": self.watchdog_restarts_total,
            "dropped_connections_total": self.dropped_connections_total,
            "breaker_transitions_total": self.breaker_transitions_total,
            "latency": self.request_latency.snapshot(),
        }
        if self._breaker_state is not None:
            data["breaker_state"] = self._breaker_state()
        hit_rate = self.cache_hit_rate()
        if hit_rate is not None:
            data["cache_hit_rate"] = round(hit_rate, 6)
            assert self._cache_stats is not None
            data["cache"] = dict(self._cache_stats())
        return data

    def render(self) -> str:
        """Prometheus exposition for ``/metrics`` — the whole registry."""
        return self.registry.render()

    # -- registry collectors (scrape-time views) ------------------------
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
