"""Metrics registry: series math, label escaping, Prometheus exposition."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry, escape_label_value


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "Jobs.")
        counter.inc()
        counter.inc(2.0)
        assert counter.value() == 3.0

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("shed_total", labelnames=("reason",))
        counter.inc(reason="queue_full")
        counter.inc(reason="queue_full")
        counter.inc(reason="rate_limit")
        assert counter.value(reason="queue_full") == 2.0
        assert counter.value(reason="rate_limit") == 1.0
        assert counter.series() == {("queue_full",): 2.0, ("rate_limit",): 1.0}

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1.0)

    def test_wrong_labels_rejected(self):
        counter = MetricsRegistry().counter("c", labelnames=("reason",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(cause="oops")
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()  # label required


class TestGauge:
    def test_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5.0)
        gauge.inc(-2.0)  # gauges may go down
        assert gauge.value() == 3.0

    def test_set_max_tracks_peak(self):
        gauge = MetricsRegistry().gauge("peak")
        gauge.set_max(4.0)
        gauge.set_max(2.0)
        assert gauge.value() == 4.0
        gauge.set_max(9.0)
        assert gauge.value() == 9.0


class TestLabelEscaping:
    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_escaped_values_in_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("weird", labelnames=("path",))
        counter.inc(path='C:\\logs\n"prod"')
        text = registry.render()
        assert 'weird{path="C:\\\\logs\\n\\"prod\\""} 1' in text

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("1bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok", labelnames=("bad-label",))


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("m")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("m", labelnames=("b",))

    def test_untouched_unlabeled_metric_renders_zero(self):
        registry = MetricsRegistry()
        registry.counter("never_incremented_total", "Zero until first event.")
        text = registry.render()
        assert "never_incremented_total 0" in text
        assert "# TYPE never_incremented_total counter" in text

    def test_touch_materialises_labeled_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("shed_total", labelnames=("reason",))
        # Labeled metrics render nothing until a series exists...
        assert "shed_total{" not in registry.render()
        counter.touch(reason="queue_full")
        assert 'shed_total{reason="queue_full"} 0' in registry.render()

    def test_collectors_join_the_page(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: ["custom_line 42"])
        text = registry.render()
        assert "custom_line 42" in text
        assert text.endswith("\n")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("plain").inc(2)
        registry.gauge("g", labelnames=("k",)).set(1.5, k="x")
        snapshot = registry.snapshot()
        assert snapshot["plain"] == {"kind": "counter", "value": 2.0}
        assert snapshot["g"] == {"kind": "gauge", "value": {"x": 1.5}}
