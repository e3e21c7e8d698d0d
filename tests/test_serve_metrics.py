"""Serving telemetry: histogram math, counters, Prometheus rendering."""

from __future__ import annotations

import math
import threading

import pytest

from repro.analysis import tsan
from repro.serve import LatencyHistogram, ServeMetrics


class TestLatencyHistogram:
    def test_percentiles_are_exact_over_the_window(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):  # 1..100 ms
            histogram.observe(float(value))
        assert histogram.percentile(0.50) == 50.0
        assert histogram.percentile(0.99) == 99.0
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(1.0) == 100.0

    def test_window_slides(self):
        histogram = LatencyHistogram(window=4)
        for value in (100.0, 1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        # The 100 ms outlier scrolled out of the window...
        assert histogram.percentile(1.0) == 4.0
        # ...but stays in the cumulative counters.
        assert histogram.total == 5
        assert histogram.sum_ms == 110.0

    def test_bucket_counts_are_cumulative_in_snapshot(self):
        histogram = LatencyHistogram(buckets_ms=(1.0, 10.0, math.inf))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"1": 1, "10": 1, "+Inf": 1}
        assert snapshot["count"] == 3

    def test_empty_histogram_percentile_is_zero(self):
        assert LatencyHistogram().percentile(0.99) == 0.0
        assert LatencyHistogram().percentile(0.0) == 0.0

    def test_single_sample_serves_every_quantile(self):
        histogram = LatencyHistogram()
        histogram.observe(7.5)
        assert histogram.percentile(0.5) == 7.5
        assert histogram.percentile(0.99) == 7.5
        assert histogram.percentile(0.0) == 7.5
        assert histogram.percentile(1.0) == 7.5

    def test_overflow_lands_in_inf_bucket(self):
        histogram = LatencyHistogram(buckets_ms=(1.0, 10.0, math.inf))
        histogram.observe(1e6)  # way past the largest finite bucket
        snapshot = histogram.snapshot()
        assert snapshot["buckets"]["+Inf"] == 1
        assert snapshot["buckets"]["10"] == 0
        assert histogram.percentile(0.99) == 1e6

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            LatencyHistogram(buckets_ms=(2.0, 1.0))
        with pytest.raises(ValueError, match="window"):
            LatencyHistogram(window=0)
        with pytest.raises(ValueError, match="q must be"):
            LatencyHistogram().percentile(1.5)


class TestServeMetrics:
    def test_counters_and_snapshot(self):
        metrics = ServeMetrics()
        metrics.observe_batch(3)
        metrics.observe_batch(3)
        metrics.observe_batch(1)
        for latency in (1.0, 2.0, 3.0):
            metrics.observe_request(latency)
        metrics.observe_error()
        metrics.observe_queue_depth(5)
        metrics.observe_queue_depth(2)
        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == 3
        assert snapshot["errors_total"] == 1
        assert snapshot["batches_total"] == 3
        assert snapshot["batch_sizes"] == {1: 1, 3: 2}
        assert snapshot["queue_depth"] == 2
        assert snapshot["queue_depth_peak"] == 5

    def test_prometheus_rendering(self):
        metrics = ServeMetrics()
        metrics.observe_batch(2)
        metrics.observe_request(1.5)
        metrics.observe_request(3.0)
        text = metrics.render()
        assert "repro_serve_requests_total 2" in text
        assert 'repro_serve_batch_size_total{size="2"} 1' in text
        assert 'repro_serve_latency_ms_bucket{le="+Inf"} 2' in text
        # Buckets are rendered cumulatively: the 2 ms bucket holds both.
        assert 'repro_serve_latency_ms_bucket{le="2"} 1' in text
        assert text.endswith("\n")

    def test_untouched_metrics_render_zero_samples(self):
        text = ServeMetrics().render()
        assert "repro_serve_requests_total 0" in text
        assert "repro_serve_breaker_transitions_total 0" in text
        # Shed reasons are pre-materialised so dashboards see them at 0.
        assert 'repro_serve_shed_total{reason="queue_full"} 0' in text
        assert 'repro_serve_shed_total{reason="rate_limit"} 0' in text

    def test_empty_latency_quantiles_render_as_zero(self):
        text = ServeMetrics().render()
        assert 'repro_serve_latency_ms{quantile="0.5"} 0.000000' in text
        assert 'repro_serve_latency_ms{quantile="0.99"} 0.000000' in text
        assert "repro_serve_latency_ms_count 0" in text

    def test_shed_label_values_are_escaped(self):
        metrics = ServeMetrics()
        metrics.observe_shed(reason='weird"reason\nwith newline')
        text = metrics.render()
        assert (
            'repro_serve_shed_total{reason="weird\\"reason\\nwith newline"} 1'
            in text
        )

    def test_loop_and_thread_writes_share_the_lock(self):
        """The counters change under one lock, so writes from the event
        loop and from another thread show the runtime sanitizer no race."""
        metrics = ServeMetrics()

        def observe_all():
            metrics.observe_error()
            metrics.observe_shed("rate_limit")
            metrics.observe_batch(2)
            metrics.observe_queue_depth(3)

        previous = tsan.set_tsan_enabled(True)
        tsan.reset()
        try:
            tsan.register_loop()
            observe_all()
            worker = threading.Thread(target=observe_all)
            worker.start()
            worker.join(timeout=30)
            found = tsan.violations()
        finally:
            tsan.reset()
            tsan.set_tsan_enabled(previous)
        assert not worker.is_alive()
        assert found == []
        assert metrics.errors_total == metrics.batches_total == 2


# The whole /metrics page, byte for byte, for two fixed metric states.
# Labelled series come in label-string order, so size="10" precedes "2".
FILLED_PAGE = r"""# HELP repro_serve_requests_total Selection requests completed.
# TYPE repro_serve_requests_total counter
repro_serve_requests_total 5
# HELP repro_serve_errors_total Requests that failed with an error.
# TYPE repro_serve_errors_total counter
repro_serve_errors_total 1
# HELP repro_serve_batches_total Micro-batcher flushes executed.
# TYPE repro_serve_batches_total counter
repro_serve_batches_total 5
# HELP repro_serve_queue_depth Admission queue depth (last observed).
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 2
# HELP repro_serve_queue_depth_peak Highest observed queue depth.
# TYPE repro_serve_queue_depth_peak gauge
repro_serve_queue_depth_peak 7
# HELP repro_serve_batch_size_total Flushes by batch size.
# TYPE repro_serve_batch_size_total counter
repro_serve_batch_size_total{size="1"} 1
repro_serve_batch_size_total{size="10"} 1
repro_serve_batch_size_total{size="2"} 1
repro_serve_batch_size_total{size="3"} 2
# HELP repro_serve_shed_total Requests shed by admission control, by reason.
# TYPE repro_serve_shed_total counter
repro_serve_shed_total{reason="queue_full"} 1
repro_serve_shed_total{reason="rate_limit"} 1
repro_serve_shed_total{reason="we\"ird\nx"} 1
# HELP repro_serve_deadline_exceeded_total Requests rejected or abandoned on an expired deadline.
# TYPE repro_serve_deadline_exceeded_total counter
repro_serve_deadline_exceeded_total 1
# HELP repro_serve_watchdog_restarts_total Flush-loop restarts performed by the batcher watchdog.
# TYPE repro_serve_watchdog_restarts_total counter
repro_serve_watchdog_restarts_total 1
# HELP repro_serve_dropped_connections_total Client connections that vanished mid-request.
# TYPE repro_serve_dropped_connections_total counter
repro_serve_dropped_connections_total 1
# HELP repro_serve_breaker_transitions_total Circuit-breaker state transitions (any direction).
# TYPE repro_serve_breaker_transitions_total counter
repro_serve_breaker_transitions_total 1
# TYPE repro_serve_latency_ms summary
repro_serve_latency_ms{quantile="0.5"} 3.000000
repro_serve_latency_ms{quantile="0.99"} 2000.000000
repro_serve_latency_ms_sum 2011.800000
repro_serve_latency_ms_count 5
# TYPE repro_serve_latency_ms_bucket counter
repro_serve_latency_ms_bucket{le="0.5"} 1
repro_serve_latency_ms_bucket{le="1"} 1
repro_serve_latency_ms_bucket{le="2"} 2
repro_serve_latency_ms_bucket{le="5"} 3
repro_serve_latency_ms_bucket{le="10"} 4
repro_serve_latency_ms_bucket{le="20"} 4
repro_serve_latency_ms_bucket{le="50"} 4
repro_serve_latency_ms_bucket{le="100"} 4
repro_serve_latency_ms_bucket{le="250"} 4
repro_serve_latency_ms_bucket{le="1000"} 4
repro_serve_latency_ms_bucket{le="+Inf"} 5
# HELP repro_serve_breaker_state 0=closed 1=half_open 2=open
# TYPE repro_serve_breaker_state gauge
repro_serve_breaker_state 1
"""

FRESH_PAGE = r"""# HELP repro_serve_requests_total Selection requests completed.
# TYPE repro_serve_requests_total counter
repro_serve_requests_total 0
# HELP repro_serve_errors_total Requests that failed with an error.
# TYPE repro_serve_errors_total counter
repro_serve_errors_total 0
# HELP repro_serve_batches_total Micro-batcher flushes executed.
# TYPE repro_serve_batches_total counter
repro_serve_batches_total 0
# HELP repro_serve_queue_depth Admission queue depth (last observed).
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 0
# HELP repro_serve_queue_depth_peak Highest observed queue depth.
# TYPE repro_serve_queue_depth_peak gauge
repro_serve_queue_depth_peak 0
# HELP repro_serve_batch_size_total Flushes by batch size.
# TYPE repro_serve_batch_size_total counter
# HELP repro_serve_shed_total Requests shed by admission control, by reason.
# TYPE repro_serve_shed_total counter
repro_serve_shed_total{reason="queue_full"} 0
repro_serve_shed_total{reason="rate_limit"} 0
# HELP repro_serve_deadline_exceeded_total Requests rejected or abandoned on an expired deadline.
# TYPE repro_serve_deadline_exceeded_total counter
repro_serve_deadline_exceeded_total 0
# HELP repro_serve_watchdog_restarts_total Flush-loop restarts performed by the batcher watchdog.
# TYPE repro_serve_watchdog_restarts_total counter
repro_serve_watchdog_restarts_total 0
# HELP repro_serve_dropped_connections_total Client connections that vanished mid-request.
# TYPE repro_serve_dropped_connections_total counter
repro_serve_dropped_connections_total 0
# HELP repro_serve_breaker_transitions_total Circuit-breaker state transitions (any direction).
# TYPE repro_serve_breaker_transitions_total counter
repro_serve_breaker_transitions_total 0
# TYPE repro_serve_latency_ms summary
repro_serve_latency_ms{quantile="0.5"} 0.000000
repro_serve_latency_ms{quantile="0.99"} 0.000000
repro_serve_latency_ms_sum 0.000000
repro_serve_latency_ms_count 0
# TYPE repro_serve_latency_ms_bucket counter
repro_serve_latency_ms_bucket{le="0.5"} 0
repro_serve_latency_ms_bucket{le="1"} 0
repro_serve_latency_ms_bucket{le="2"} 0
repro_serve_latency_ms_bucket{le="5"} 0
repro_serve_latency_ms_bucket{le="10"} 0
repro_serve_latency_ms_bucket{le="20"} 0
repro_serve_latency_ms_bucket{le="50"} 0
repro_serve_latency_ms_bucket{le="100"} 0
repro_serve_latency_ms_bucket{le="250"} 0
repro_serve_latency_ms_bucket{le="1000"} 0
repro_serve_latency_ms_bucket{le="+Inf"} 0
"""


def filled_metrics() -> ServeMetrics:
    metrics = ServeMetrics()
    for size in (3, 3, 1, 10, 2):
        metrics.observe_batch(size)
    for latency in (0.3, 1.5, 3.0, 7.0, 2000.0):
        metrics.observe_request(latency)
    metrics.observe_error()
    metrics.observe_deadline_exceeded()
    metrics.observe_watchdog_restart()
    metrics.observe_dropped_connection()
    metrics.observe_breaker_transition("closed", "open")
    for reason in ("queue_full", "rate_limit", 'we"ird\nx'):
        metrics.observe_shed(reason)
    metrics.observe_queue_depth(7)
    metrics.observe_queue_depth(2)
    metrics.set_breaker_state_provider(lambda: "half_open")
    return metrics


class TestGoldenPage:
    def test_filled_page(self):
        assert filled_metrics().render() == FILLED_PAGE

    def test_fresh_page(self):
        assert ServeMetrics().render() == FRESH_PAGE

    def test_snapshot_lists_labelled_series_in_page_order(self):
        snapshot = filled_metrics().snapshot()
        batch_sizes = list(snapshot["batch_sizes"].items())
        assert batch_sizes == [(1, 1), (10, 1), (2, 1), (3, 2)]
        assert list(snapshot["shed_total"]) == ["queue_full", "rate_limit", 'we"ird\nx']
