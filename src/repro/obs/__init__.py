"""Unified observability: metrics registry, trace spans, telemetry, logs.

The obs layer is the one place the repro runtime is *watched* from —
shared by training (:meth:`repro.core.pafeat.PAFeat.fit`) and the
serving stack (:mod:`repro.serve`):

* :mod:`repro.obs.registry` — thread-safe, label-aware ``Counter`` /
  ``Gauge`` with Prometheus text exposition; one
  :class:`MetricsRegistry` backs the server's ``/metrics`` page, which
  serving's latency histogram joins through a collector.
* :mod:`repro.obs.trace` — deterministic span/trace API writing JSONL;
  spans are the one timing source, and ``Tracer.totals`` sums them per
  name for the telemetry phase fractions.
* :mod:`repro.obs.telemetry` — the per-episode/per-iteration training
  event stream plus the ``repro obs summarize`` report renderer.
* :mod:`repro.obs.log` — structured (JSON-capable) logging with
  component and run-id context.
* :mod:`repro.obs.clock` — the single sanctioned monotonic-clock
  boundary (repolint OBS1102); everything above takes an injectable
  clock for deterministic tests.

The whole layer is near-zero-cost when disabled and non-interfering by
contract: enabling telemetry/tracing changes no RNG stream and no
trainer state (see ARCHITECTURE §11 and ``benchmarks/bench_obs.py``).
"""

from repro.obs.clock import Clock, monotonic
from repro.obs.log import (
    JsonFormatter,
    StructuredLogger,
    configure_json,
    get_logger,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    escape_label_value,
)
from repro.obs.telemetry import (
    TelemetryWriter,
    read_events,
    render_run_report,
    summarize_events,
)
from repro.obs.trace import NULL_TRACER, Span, Tracer, read_trace

__all__ = [
    "Clock",
    "Counter",
    "Gauge",
    "JsonFormatter",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "StructuredLogger",
    "TelemetryWriter",
    "Tracer",
    "configure_json",
    "escape_label_value",
    "get_logger",
    "monotonic",
    "read_events",
    "read_trace",
    "render_run_report",
    "summarize_events",
]
