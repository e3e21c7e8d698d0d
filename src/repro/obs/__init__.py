"""Observability: the clock boundary, trace spans and training telemetry.

The obs layer is where the repro runtime is *watched* from, shared by
training (:meth:`repro.core.pafeat.PAFeat.fit`) and the serving stack
(:mod:`repro.serve`):

* :mod:`repro.obs.trace` — deterministic span/trace API writing JSONL;
  spans are the one timing source, and ``Tracer.totals`` sums them per
  name for the telemetry phase fractions.
* :mod:`repro.obs.telemetry` — the per-episode/per-iteration training
  event stream plus the ``repro obs summarize`` report renderer.
* :mod:`repro.obs.clock` — the single sanctioned monotonic-clock
  boundary (repolint OBS1102); everything above takes an injectable
  clock for deterministic tests.

Serving renders its own ``/metrics`` page
(:class:`repro.serve.metrics.ServeMetrics`), and components log through
stdlib ``logging.getLogger(__name__)``.

The whole layer is near-zero-cost when disabled and non-interfering by
contract: enabling telemetry/tracing changes no RNG stream and no
trainer state (see ARCHITECTURE §11 and ``benchmarks/bench_obs.py``).
"""

from repro.obs.clock import Clock, monotonic
from repro.obs.telemetry import (
    TelemetryWriter,
    read_events,
    render_run_report,
    summarize_events,
)
from repro.obs.trace import NULL_TRACER, Span, Tracer, read_trace

__all__ = [
    "Clock",
    "NULL_TRACER",
    "Span",
    "TelemetryWriter",
    "Tracer",
    "monotonic",
    "read_events",
    "read_trace",
    "render_run_report",
    "summarize_events",
]
