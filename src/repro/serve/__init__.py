"""Serving: batched greedy inference behind an async micro-batching server.

PA-FEAT's deployment story is train-once, answer-many: Algorithm 1's cost
is amortised across every future unseen task, and each answer is a single
greedy episode — milliseconds of Q-network forwards.  This package turns
that property into a service:

* :class:`~repro.serve.engine.BatchedGreedyEngine` — run B unseen tasks'
  greedy episodes in lockstep, at most one batched Q-forward per feature
  step (bit-exact with sequential :meth:`repro.core.pafeat.PAFeat.select`);
* :class:`~repro.serve.registry.ModelRegistry` — versioned, checksum-
  verified model loading with corruption fallback, hot swap and an LRU
  task-representation cache;
* :class:`~repro.serve.batcher.MicroBatcher` — an asyncio request queue
  that flushes on batch size or latency budget, with bounded-depth
  admission control, per-request deadlines, a self-healing flush-loop
  watchdog and graceful drain;
* :class:`~repro.serve.server.SelectionServer` — ``/select``,
  ``/healthz``, ``/metrics`` and ``/reload`` over stdlib asyncio, with
  structured overload behaviour (429 + ``Retry-After`` shedding, 504 on
  expired deadlines, a circuit breaker around model reloads) built on
  :mod:`repro.io.resilience`;
* :class:`~repro.serve.metrics.ServeMetrics` — latency p50/p99, queue
  depth, batch-size distribution, cache hit rate and the shed/deadline/
  breaker/watchdog resilience counters, kept as plain attributes and
  rendered as the ``/metrics`` page by the class itself.

Run it: ``python -m repro serve --checkpoint-dir <model-or-versions-dir>``
(see ``examples/serve_client.py`` for a self-contained demo).
"""

from repro.serve.batcher import (
    BatcherClosed,
    BatcherStalled,
    MicroBatcher,
    QueueFull,
    ServiceUnavailable,
)
from repro.serve.engine import BatchedGreedyEngine
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.registry import (
    ModelRegistry,
    ModelVersion,
    RegistryError,
    task_fingerprint,
)
from repro.serve.server import SelectionServer

__all__ = [
    "BatchedGreedyEngine",
    "BatcherClosed",
    "BatcherStalled",
    "LatencyHistogram",
    "MicroBatcher",
    "ModelRegistry",
    "ModelVersion",
    "QueueFull",
    "RegistryError",
    "SelectionServer",
    "ServeMetrics",
    "ServiceUnavailable",
    "task_fingerprint",
]
