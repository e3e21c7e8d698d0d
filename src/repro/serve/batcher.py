"""Async micro-batching request queue (stdlib ``asyncio`` only).

The batched engine turns B queued selection requests into one lockstep
inference; this module supplies the B.  Requests submitted concurrently
are gathered into batches that flush on whichever comes first:

* **size** — ``max_batch_size`` requests are waiting, or
* **time** — ``max_latency_ms`` elapsed since the batch opened (bounded
  queueing delay: a lone request never waits longer than the budget).

One worker coroutine owns the queue; the handler (the batched engine) runs
inline on the event loop — selection is a few milliseconds of NumPy, and
running it on the loop serialises model access by construction (no locks).
This queue is therefore *the* synchronization point of the serving path
(rationale in ``docs/ARCHITECTURE.md`` §8).

Overload and failure behaviour is explicit rather than emergent:

* **Bounded admission** — with ``max_queue_depth`` set, :meth:`submit`
  sheds excess load with :class:`QueueFull` (carrying a retry-after
  estimate) instead of queueing unboundedly; the server maps it to a
  structured ``429`` + ``Retry-After``.
* **Deadlines** — a request may carry a
  :class:`~repro.io.resilience.Deadline`; expired requests are failed
  with :class:`~repro.io.resilience.DeadlineExceeded` *before* they
  consume a batch slot (at submit, at gather, and again at flush).
* **Watchdog** — with ``watchdog_timeout_ms`` set, a sidecar coroutine
  detects a crashed or stalled worker (no progress while work is
  outstanding), fails the stranded requests with :class:`BatcherStalled`,
  and restarts the flush loop so one poisoned batch cannot hang every
  future request.
* **Drain** — requests still queued when the worker exits are failed with
  :class:`ServiceUnavailable` instead of leaving their futures pending
  forever.

``clock``, ``wait_for`` and ``sleep`` are injectable so tests can drive
the size/timeout/drain/watchdog logic deterministically with a fake clock
instead of sleeping through real latency budgets.
"""

from __future__ import annotations

import asyncio
import logging
import math
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro.errors import LifecycleError, ServeError
from repro.io.resilience import Deadline, DeadlineExceeded
from repro.obs.clock import monotonic

__all__ = [
    "BatcherClosed",
    "BatcherStalled",
    "MicroBatcher",
    "QueueFull",
    "ServiceUnavailable",
]

_LOG = logging.getLogger(__name__)


class BatcherClosed(ServeError):
    """Submit was called on a draining/stopped batcher."""


class ServiceUnavailable(BatcherClosed):
    """A queued request was abandoned because the batcher shut down."""


class BatcherStalled(ServeError):
    """The watchdog killed a stalled/crashed flush loop holding this request."""


class QueueFull(ServeError):
    """Admission control shed this request: the bounded queue is full.

    Built via :func:`queue_full_error`: a plain message-only exception plus
    attribute assignment, because a custom ``__init__`` would call
    ``super().__init__``, which the call graph resolves by name to every
    ``__init__`` in the program — edges the exception and concurrency
    passes walk.
    """

    depth: int = 0
    capacity: int = 0
    retry_after_s: float = 0.0


def queue_full_error(depth: int, capacity: int, retry_after_s: float) -> QueueFull:
    """A :class:`QueueFull` carrying the shed context and a retry hint."""
    error = QueueFull(
        f"admission queue is full ({depth}/{capacity} waiting); "
        f"retry in ~{retry_after_s:.2f}s"
    )
    error.depth = depth
    error.capacity = capacity
    error.retry_after_s = retry_after_s
    return error


@dataclass
class _Pending:
    """One queued request: payload, completion future, enqueue timestamp."""

    payload: Any
    future: "asyncio.Future[Any]" = field(repr=False)
    enqueued_at: float
    deadline: Deadline | None = None


class _Sentinel:
    """Queue marker that tells the worker to flush and exit."""


_SHUTDOWN = _Sentinel()


class MicroBatcher:
    """Gather concurrent requests into batches for a synchronous handler.

    ``handler`` maps a list of payloads to an equal-length list of
    results; each :meth:`submit` resolves with the result at its payload's
    position.  A handler exception fails every request in the batch (the
    error is per-batch, not per-process — the worker keeps serving).
    """

    def __init__(
        self,
        handler: Callable[[list[Any]], list[Any]],
        *,
        max_batch_size: int = 64,
        max_latency_ms: float = 5.0,
        max_queue_depth: int | None = None,
        watchdog_timeout_ms: float | None = None,
        clock: Callable[[], float] = monotonic,
        wait_for: Callable[..., Awaitable[Any]] = asyncio.wait_for,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
        metrics: Any = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_latency_ms < 0:
            raise ValueError(f"max_latency_ms must be >= 0, got {max_latency_ms}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        if watchdog_timeout_ms is not None and watchdog_timeout_ms <= 0:
            raise ValueError(
                f"watchdog_timeout_ms must be > 0 or None, got {watchdog_timeout_ms}"
            )
        self._handler = handler
        self.max_batch_size = max_batch_size
        self.max_latency_s = max_latency_ms / 1000.0
        self.max_queue_depth = max_queue_depth
        self.watchdog_timeout_s = (
            watchdog_timeout_ms / 1000.0 if watchdog_timeout_ms is not None else None
        )
        self._clock = clock
        self._wait_for = wait_for
        self._sleep = sleep
        self._metrics = metrics
        self._queue: "asyncio.Queue[_Pending | _Sentinel] | None" = None
        self._worker: "asyncio.Task[None] | None" = None
        self._watchdog_task: "asyncio.Task[None] | None" = None
        self._closing = False
        #: requests popped from the queue for the batch being gathered —
        #: exposed so the watchdog can fail them if the worker stalls.
        self._inflight: list[_Pending] = []
        self._last_beat = 0.0
        self._restarts = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Create the queue and start the worker on the running loop."""
        if self._worker is not None:
            raise LifecycleError("batcher is already started")
        self._closing = False
        self._queue = asyncio.Queue()
        self._inflight = []
        self._last_beat = self._clock()
        self._worker = asyncio.create_task(self._run(self._queue))
        if self.watchdog_timeout_s is not None:
            self._watchdog_task = asyncio.create_task(self._watchdog())

    async def drain(self) -> None:
        """Graceful shutdown: reject new work, flush pending, stop.

        Every request submitted before the drain still completes (the
        shutdown marker sits behind them in the FIFO queue); submits after
        the drain raise :class:`BatcherClosed`.  Requests that somehow
        remain queued once the worker exits (the sentinel winning a race,
        or a worker that died) are failed with
        :class:`ServiceUnavailable` rather than left hanging.  Idempotent.
        """
        if self._worker is None or self._closing:
            return
        self._closing = True
        assert self._queue is not None
        self._queue.put_nowait(_SHUTDOWN)
        worker = self._worker
        try:
            await worker
        except asyncio.CancelledError:
            if not worker.cancelled():
                raise  # the drain itself was cancelled, not the worker
        except Exception:
            _LOG.exception("batcher worker died during drain")
        self._worker = None
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        self._fail_outstanding(
            ServiceUnavailable("batcher drained before this request was flushed")
        )

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def running(self) -> bool:
        """True while the flush loop is alive (liveness for ``/healthz``)."""
        return self._worker is not None and not self._worker.done()

    @property
    def restarts(self) -> int:
        """How many times the watchdog restarted the flush loop."""
        return self._restarts

    # -- request path ---------------------------------------------------
    async def submit(self, payload: Any, deadline: Deadline | None = None) -> Any:
        """Enqueue one payload and wait for its batched result.

        Raises :class:`QueueFull` when admission control sheds the
        request, and :class:`~repro.io.resilience.DeadlineExceeded` when
        ``deadline`` has already expired — both *before* enqueueing.
        """
        if self._closing:
            raise BatcherClosed("batcher is draining; request rejected")
        if self._queue is None or self._worker is None:
            raise LifecycleError("batcher is not started; call start() first")
        if deadline is not None and deadline.expired:
            if self._metrics is not None:
                self._metrics.observe_deadline_exceeded()
            raise DeadlineExceeded(
                f"request deadline ({deadline.budget_s * 1000.0:.0f} ms) "
                f"expired before admission"
            )
        depth = self._queue.qsize()
        if self.max_queue_depth is not None and depth >= self.max_queue_depth:
            if self._metrics is not None:
                self._metrics.observe_shed("queue_full")
            raise queue_full_error(
                depth, self.max_queue_depth, self._retry_after_s(depth)
            )
        pending = _Pending(
            payload=payload,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=self._clock(),
            deadline=deadline,
        )
        self._queue.put_nowait(pending)
        if self._metrics is not None:
            self._metrics.observe_queue_depth(self._queue.qsize())
        return await pending.future

    def _retry_after_s(self, depth: int) -> float:
        """Estimated time for the current backlog to drain (429 hint)."""
        batches = max(1, math.ceil(depth / self.max_batch_size))
        return batches * max(self.max_latency_s, 0.001)

    # -- worker ---------------------------------------------------------
    def _beat(self) -> None:
        self._last_beat = self._clock()

    def _expire(self, pending: _Pending) -> bool:
        """True when ``pending`` must be dropped instead of batched.

        A request is dropped when its future is already settled (e.g. a
        server-side timeout cancelled it while queued) or its deadline has
        expired — the latter fails the future with
        :class:`~repro.io.resilience.DeadlineExceeded` so the waiter gets
        a typed answer instead of silently wasting a batch slot.
        """
        if pending.future.done():
            return True
        if pending.deadline is not None and pending.deadline.expired:
            pending.future.set_exception(
                DeadlineExceeded(
                    f"request deadline "
                    f"({pending.deadline.budget_s * 1000.0:.0f} ms) expired "
                    f"while queued"
                )
            )
            if self._metrics is not None:
                self._metrics.observe_deadline_exceeded()
            return True
        return False

    async def _run(self, queue: "asyncio.Queue[_Pending | _Sentinel]") -> None:
        while True:
            head = await queue.get()
            self._beat()
            if isinstance(head, _Sentinel):
                # FIFO: every request enqueued before the drain marker has
                # already been consumed, so there is nothing left to flush.
                return
            if self._expire(head):
                continue
            self._inflight = [head]
            shutting_down = False
            deadline = self._clock() + self.max_latency_s
            while len(self._inflight) < self.max_batch_size:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                try:
                    item = await self._wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                self._beat()
                if isinstance(item, _Sentinel):
                    shutting_down = True
                    break
                if not self._expire(item):
                    self._inflight.append(item)
            self._flush(self._inflight)
            self._inflight = []
            self._beat()
            # Re-observe after the flush drained the queue: the gauge must
            # fall back down once requests are consumed, not stay pinned at
            # the last enqueue-time depth.
            if self._metrics is not None:
                self._metrics.observe_queue_depth(queue.qsize())
            if shutting_down:
                return

    def _flush(self, batch: list[_Pending]) -> None:
        """Run the handler on one gathered batch and resolve its futures."""
        batch = [pending for pending in batch if not self._expire(pending)]
        if not batch:
            return
        if self._metrics is not None:
            self._metrics.observe_batch(len(batch))
        payloads = [pending.payload for pending in batch]
        try:
            results = self._handler(payloads)
            if len(results) != len(batch):
                raise ServeError(
                    f"batch handler returned {len(results)} results for "
                    f"{len(batch)} payloads"
                )
        except Exception as exc:  # fail the batch, keep the worker alive
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
                if self._metrics is not None:
                    self._metrics.observe_error()
            return
        now = self._clock()
        for pending, result in zip(batch, results):
            if not pending.future.done():
                pending.future.set_result(result)
            if self._metrics is not None:
                self._metrics.observe_request((now - pending.enqueued_at) * 1000.0)

    # -- watchdog -------------------------------------------------------
    async def _watchdog(self) -> None:
        """Detect a crashed or stalled flush loop and restart it.

        *Crashed*: the worker task completed while the batcher is still
        open (the flush loop never returns normally outside a drain).
        *Stalled*: work is outstanding (gathered requests or a non-empty
        queue) but the worker has made no progress for a full
        ``watchdog_timeout_ms``.  Either way the stranded in-flight
        requests are failed with :class:`BatcherStalled` and a fresh
        worker takes over the queue.
        """
        assert self.watchdog_timeout_s is not None
        interval = self.watchdog_timeout_s / 2.0
        while not self._closing:
            await self._sleep(interval)
            if self._closing or self._queue is None:
                return
            worker = self._worker
            if worker is None:
                return
            crashed = worker.done()
            outstanding = bool(self._inflight) or self._queue.qsize() > 0
            stalled = (
                not crashed
                and outstanding
                and self._clock() - self._last_beat > self.watchdog_timeout_s
            )
            if not crashed and not stalled:
                continue
            reason = "crashed" if crashed else "stalled"
            if crashed:
                error = worker.exception() if not worker.cancelled() else None
                _LOG.error("batcher worker crashed: %r; restarting", error)
            else:
                _LOG.error(
                    "batcher worker stalled for > %.3fs with work outstanding; "
                    "restarting",
                    self.watchdog_timeout_s,
                )
                worker.cancel()
                try:
                    await worker
                except asyncio.CancelledError:
                    pass
                except Exception:
                    _LOG.exception("stalled batcher worker died on cancel")
            failure = BatcherStalled(
                f"batch flush loop {reason}; request failed by the watchdog"
            )
            for pending in self._inflight:
                if not pending.future.done():
                    pending.future.set_exception(failure)
                if self._metrics is not None:
                    self._metrics.observe_error()
            self._inflight = []
            self._restarts += 1
            if self._metrics is not None:
                self._metrics.observe_watchdog_restart()
            self._beat()
            self._worker = asyncio.create_task(self._run(self._queue))

    # -- shutdown helpers ----------------------------------------------
    def _fail_outstanding(self, error: Exception) -> None:
        """Fail every request still sitting in the queue with ``error``."""
        if self._queue is None:
            return
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                if self._metrics is not None:
                    self._metrics.observe_queue_depth(0)
                return
            if isinstance(item, _Sentinel):
                continue
            if not item.future.done():
                item.future.set_exception(error)
                if self._metrics is not None:
                    self._metrics.observe_error()
