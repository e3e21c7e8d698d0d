"""Async selection server: ``/select``, ``/healthz``, ``/metrics``.

A deliberately small HTTP/1.1 server over raw ``asyncio`` streams — the
runtime dependency budget is numpy-only, so there is no web framework to
lean on, and the protocol surface (three JSON endpoints, short-lived
connections) does not justify one.

Request path::

    client ──POST /select──▶ admission (rate limit, deadline)
                         ──▶ registry.representation (LRU)
                         ──▶ MicroBatcher.submit ──┐
                                                   ▼  flush on
                              BatchedGreedyEngine ◀┘  size/time
                                    │
    client ◀──{"subset": [...]}─────┘

Endpoints:

* ``POST /select`` — body ``{"features": [[...]], "labels": [...]}`` (raw
  task data; the representation is computed and LRU-cached) or
  ``{"representation": [...]}`` (precomputed |Pearson| vector), plus an
  optional ``"timeout_ms"`` — the client's latency budget, capped by the
  server's.  Response: the selected subset, the serving model version and
  the request latency.  A malformed request, or a task of another feature
  count than the serving model's, is a ``400`` before admission.
* ``GET /healthz`` — liveness + the served model version, batcher
  liveness and reload-breaker state.
* ``GET /metrics`` — Prometheus-style text (latency p50/p99, queue depth,
  batch-size distribution, cache hit rate, shed/deadline/breaker/watchdog
  counters).
* ``POST /reload`` — rescan the registry root and hot-swap to a newer
  valid model version (no restart; corrupt candidates are skipped).

Overload behaviour is structured, not emergent
(:mod:`repro.io.resilience` wired end-to-end):

* a full admission queue or an exhausted rate-limit bucket sheds with
  ``429`` + ``Retry-After`` instead of queueing unboundedly;
* each request carries a :class:`~repro.io.resilience.Deadline`; expired
  requests get ``504`` without wasting a batch slot;
* ``/reload`` runs behind a :class:`~repro.io.resilience.CircuitBreaker`
  — repeated corrupt or failing loads trip it open (last-good model keeps
  serving), half-open probes recover it automatically;
* the batcher watchdog restarts a stalled flush loop and fails stranded
  requests with a typed ``503``;
* every socket read/write is bounded by ``io_timeout_s`` (the repolint
  RES801 rule enforces this for the whole serve layer).

Shutdown is graceful and reuses the training CLI's signal discipline
(:class:`repro.io.lifecycle.GracefulShutdown`): on SIGTERM/SIGINT the
listener stops accepting, the micro-batcher drains every queued request,
in-flight connections get a bounded window to finish writing, then the
process exits.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.analysis import tsan
from repro.core.batch import check_representations
from repro.errors import DataValidationError, LifecycleError, ServeError
from repro.io.lifecycle import GracefulShutdown
from repro.io.resilience import (
    BREAKER_CLOSED,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    Retry,
    TokenBucket,
)
from repro.serve.batcher import (
    BatcherClosed,
    BatcherStalled,
    MicroBatcher,
    QueueFull,
)
from repro.serve.engine import BatchedGreedyEngine
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ModelRegistry, ModelVersion, RegistryError
from repro.obs.clock import monotonic

__all__ = ["SelectionServer"]

_LOG = logging.getLogger(__name__)

_MAX_BODY_BYTES = 8 << 20  # a request is one task's data; 8 MiB is generous
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Exceptions meaning "the client went away / the socket timed out", never
#: a server bug.  ``asyncio.TimeoutError`` is distinct from the builtin
#: ``TimeoutError`` on Python 3.10, so both are listed.
_DROPPED_CONNECTION_ERRORS = (
    asyncio.IncompleteReadError,
    ConnectionError,
    TimeoutError,
    asyncio.TimeoutError,
)


class _BadRequest(ServeError, ValueError):
    """Client-side request problem → HTTP 400."""


class _Response(NamedTuple):
    """Status, content type, body and extra headers for one reply."""

    status: int
    content_type: str
    body: bytes
    headers: tuple[tuple[str, str], ...] = ()


def _retry_after_header(seconds: float) -> tuple[str, str]:
    """``Retry-After`` wants integer seconds; round up, floor at 1."""
    return ("Retry-After", str(max(1, math.ceil(seconds))))


class SelectionServer:
    """Serve feature-selection requests over a micro-batched engine."""

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_size: int = 64,
        max_latency_ms: float = 5.0,
        max_queue_depth: int = 256,
        request_timeout_ms: float | None = None,
        rate_limit_rps: float | None = None,
        rate_limit_burst: float | None = None,
        io_timeout_s: float = 10.0,
        breaker_failure_threshold: int = 3,
        breaker_reset_s: float = 30.0,
        watchdog_timeout_ms: float | None = 5000.0,
        load_retries: int = 3,
        metrics: ServeMetrics | None = None,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if request_timeout_ms is not None and request_timeout_ms < 0:
            raise ValueError(
                f"request_timeout_ms must be >= 0 or None, got {request_timeout_ms}"
            )
        if io_timeout_s <= 0:
            raise ValueError(f"io_timeout_s must be > 0, got {io_timeout_s}")
        if load_retries < 1:
            raise ValueError(f"load_retries must be >= 1, got {load_retries}")
        self.registry = registry
        self.host = host
        self.port = port
        self.max_batch_size = max_batch_size
        self.max_latency_ms = max_latency_ms
        self.max_queue_depth = max_queue_depth
        self.request_timeout_ms = request_timeout_ms
        self.io_timeout_s = io_timeout_s
        self.watchdog_timeout_ms = watchdog_timeout_ms
        self.load_retries = load_retries
        self.metrics = metrics or ServeMetrics()
        self._clock = clock
        # The (engine, version) pair requests are served with, published
        # as one tuple so a response can never mix the engine of one
        # model version with the label of another across a hot swap.
        # Loop-thread-only state: written in start()/_handle_reload(),
        # read in _select_batch()/_handle_healthz() — no lock needed (the
        # registry's cross-thread state is what the swap lock guards).
        self._serving: tuple[BatchedGreedyEngine, ModelVersion] | None = None
        self._batcher: MicroBatcher | None = None
        self._server: asyncio.AbstractServer | None = None
        self._connections: set["asyncio.Task[None]"] = set()
        self._bucket: TokenBucket | None = None
        if rate_limit_rps is not None:
            if rate_limit_rps <= 0:
                raise ValueError(
                    f"rate_limit_rps must be > 0 or None, got {rate_limit_rps}"
                )
            burst = rate_limit_burst if rate_limit_burst is not None else rate_limit_rps
            self._bucket = TokenBucket(burst, rate_limit_rps, clock=clock)
        self._reload_breaker = CircuitBreaker(
            failure_threshold=breaker_failure_threshold,
            reset_timeout_s=breaker_reset_s,
            clock=clock,
            on_state_change=self._on_breaker_transition,
        )
        self.metrics.set_breaker_state_provider(lambda: self._reload_breaker.state)

    def _on_breaker_transition(self, old_state: str, new_state: str) -> None:
        log = _LOG.warning if new_state != BREAKER_CLOSED else _LOG.info
        log("model-reload circuit breaker: %s -> %s", old_state, new_state)
        self.metrics.observe_breaker_transition(old_state, new_state)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Load the model (with retries), start the batcher, bind the listener.

        Startup is the one sanctioned place the event loop may block on
        model-file I/O (nothing is being served yet); the path is on the
        ``[tool.repolint.concurrency]`` allow-blocking list.
        """
        if self._server is not None:
            raise LifecycleError("server is already started")
        tsan.register_loop()
        if not self.registry.loaded:
            retry = Retry(
                max_attempts=self.load_retries,
                base_delay_s=0.1,
                max_delay_s=1.0,
                seed=0,
                retry_on=(RegistryError, OSError, ValueError, KeyError),
                on_retry=lambda attempt, exc, delay: _LOG.warning(
                    "model load attempt %d failed (%s); retrying in %.2fs",
                    attempt, exc, delay,
                ),
            )
            retry.call(self.registry.load)
        model, version = self.registry.serving()
        self._serving = (
            BatchedGreedyEngine.from_model(
                model, max_batch_size=self.max_batch_size
            ),
            version,
        )
        self.metrics.set_cache_stats_provider(self.registry.cache_stats)
        self._batcher = MicroBatcher(
            self._select_batch,
            max_batch_size=self.max_batch_size,
            max_latency_ms=self.max_latency_ms,
            max_queue_depth=self.max_queue_depth,
            watchdog_timeout_ms=self.watchdog_timeout_ms,
            clock=self._clock,
            metrics=self.metrics,
        )
        await self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` to the real one."""
        if self._server is None or not self._server.sockets:
            raise LifecycleError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def stop(self) -> None:
        """Graceful drain: stop accepting, flush queued requests, close.

        After the batcher drain resolves every queued future, in-flight
        connection handlers get a bounded ``io_timeout_s`` window to write
        their responses before any stragglers are cancelled — a SIGTERM
        under concurrent load must not drop accepted requests.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            # Internal queue drain, not socket flow control: bounded by the
            # flush loop's own latency budget.
            await self._batcher.drain()  # repolint: disable=RES801
            self._batcher = None
        current = asyncio.current_task()
        lingering = {
            task
            for task in self._connections
            if task is not current and not task.done()
        }
        if lingering:
            await asyncio.wait(lingering, timeout=self.io_timeout_s)
            for task in lingering:
                if not task.done():
                    task.cancel()

    async def run(self, poll_interval_s: float = 0.1) -> None:
        """Serve until SIGINT/SIGTERM, then drain and return.

        Reuses the crash-safe training path's :class:`GracefulShutdown`:
        the first signal sets a flag, this loop notices it within
        ``poll_interval_s`` and winds the server down without dropping
        queued requests.
        """
        with GracefulShutdown(action="draining in-flight requests") as stop:
            await self.start()
            try:
                while not stop():
                    await asyncio.sleep(poll_interval_s)
            finally:
                await self.stop()

    # -- inference ------------------------------------------------------
    def _select_batch(
        self, payloads: list[np.ndarray]
    ) -> list[tuple[tuple[int, ...], ModelVersion]]:
        """The micro-batcher's handler: one lockstep engine pass.

        Reads the ``(engine, version)`` pair exactly once and tags every
        result with the version that computed it, so the response a
        request eventually receives can never be labeled with a model
        version that was hot-swapped in after its batch ran.
        """
        assert self._serving is not None
        engine, version = self._serving
        return [
            (subset, version)
            for subset in engine.select_representations(payloads)
        ]

    # -- HTTP plumbing --------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            if task is not None:
                self._connections.discard(task)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self._handle_request(reader)
        except (_BadRequest, json.JSONDecodeError) as exc:
            self.metrics.observe_error()
            response = _json_response(400, {"error": str(exc)})
        except _DROPPED_CONNECTION_ERRORS:
            self.metrics.observe_dropped_connection()
            _LOG.debug("client connection dropped mid-request", exc_info=True)
            writer.close()
            return
        except Exception as exc:  # never kill the accept loop on one request
            _LOG.exception("unhandled error while serving a request")
            self.metrics.observe_error()
            response = _json_response(500, {"error": str(exc)})
        status, content_type, body, extra_headers = response
        header_lines = "".join(
            f"{name}: {value}\r\n" for name, value in extra_headers
        )
        try:
            writer.write(
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{header_lines}"
                f"Connection: close\r\n\r\n".encode("ascii")
                + body
            )
            await asyncio.wait_for(writer.drain(), self.io_timeout_s)
        except _DROPPED_CONNECTION_ERRORS:
            self.metrics.observe_dropped_connection()
            _LOG.debug("client connection dropped mid-response", exc_info=True)
        finally:
            writer.close()

    async def _handle_request(self, reader: asyncio.StreamReader) -> _Response:
        raw_line = await asyncio.wait_for(reader.readline(), self.io_timeout_s)
        request_line = raw_line.decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), self.io_timeout_s)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not declared.isdecimal():
            raise _BadRequest(f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length > _MAX_BODY_BYTES:
            return _json_response(413, {"error": "request body too large"})
        raw = (
            await asyncio.wait_for(reader.readexactly(length), self.io_timeout_s)
            if length
            else b""
        )

        if path == "/healthz" and method == "GET":
            return self._handle_healthz()
        if path == "/metrics" and method == "GET":
            return _Response(
                200, "text/plain; version=0.0.4", self.metrics.render().encode()
            )
        if path == "/select" and method == "POST":
            return await self._handle_select(raw)
        if path == "/reload" and method == "POST":
            return await self._handle_reload()
        if path in ("/select", "/reload", "/healthz", "/metrics"):
            return _json_response(405, {"error": f"{method} not allowed on {path}"})
        return _json_response(404, {"error": f"unknown path {path}"})

    # -- endpoints ------------------------------------------------------
    def _handle_healthz(self) -> _Response:
        # Report the version requests are actually served with (the
        # snapshot _select_batch reads), not the registry's — during a
        # reload the two can briefly differ.
        serving = self._serving
        version = serving[1] if serving is not None else self.registry.version
        batcher_alive = self._batcher is not None and self._batcher.running
        breaker_state = self._reload_breaker.state
        if not batcher_alive:
            status_text = "unavailable"
        elif breaker_state != BREAKER_CLOSED:
            status_text = "degraded"
        else:
            status_text = "ok"
        return _json_response(
            200 if batcher_alive else 503,
            {
                "status": status_text,
                "model_version": version.name,
                "n_features": version.n_features,
                "batcher_running": batcher_alive,
                "breaker": breaker_state,
            },
        )

    async def _handle_reload(self) -> _Response:
        """Rescan the registry and hot-swap off the event loop.

        The rescan does model-file I/O (manifest reads, checksum passes,
        ``np.load``), so it runs in the default executor — requests keep
        flowing on the loop while it works; the registry's swap lock
        makes the executor-side publication safe.  The engine rebind back
        on the loop publishes one ``(engine, version)`` tuple, so batch
        flushes interleaved with the reload stay version-consistent.
        """
        if not self._reload_breaker.allow():
            return _json_response(
                503,
                {
                    "error": "model reload circuit is open; serving last-good model",
                    "breaker": self._reload_breaker.state,
                    "model_version": self.registry.version.name,
                },
                headers=(
                    _retry_after_header(self._reload_breaker.reset_timeout_s),
                ),
            )
        skips_before = self.registry.skip_count()
        loop = asyncio.get_running_loop()
        try:
            swapped = await loop.run_in_executor(None, self.registry.refresh)
        except Exception as exc:
            _LOG.exception("model reload failed")
            self._reload_breaker.record_failure()
            self.metrics.observe_error()
            return _json_response(
                500,
                {
                    "error": f"model reload failed: {exc}",
                    "breaker": self._reload_breaker.state,
                    "model_version": self.registry.version.name,
                },
            )
        if self.registry.skip_count() > skips_before:
            # A published candidate failed verification: a corruption
            # signal even when an older last-good version keeps serving.
            self._reload_breaker.record_failure()
        else:
            self._reload_breaker.record_success()
        if swapped:
            # One consistent snapshot, one atomic rebind: batches flushed
            # after this line run — and are labeled with — the new pair.
            model, version = self.registry.serving()
            self._serving = (
                BatchedGreedyEngine.from_model(
                    model, max_batch_size=self.max_batch_size
                ),
                version,
            )
        return _json_response(
            200,
            {
                "swapped": swapped,
                "model_version": self.registry.version.name,
                "breaker": self._reload_breaker.state,
                "skipped": [
                    {"path": str(path), "reason": reason}
                    for path, reason in self.registry.recent_skips()
                ],
            },
        )

    async def _handle_select(self, raw: bytes) -> _Response:
        start = self._clock()
        if self._bucket is not None and not self._bucket.try_acquire():
            self.metrics.observe_shed("rate_limit")
            return _json_response(
                429,
                {"error": "rate limit exceeded"},
                headers=(_retry_after_header(self._bucket.retry_after_s()),),
            )
        payload = json.loads(raw.decode("utf-8")) if raw else {}
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        deadline = self._request_deadline(payload)
        representation = self._parse_task(payload)
        assert self._batcher is not None
        try:
            if deadline is not None:
                # Hard server-side bound even if the request never reaches
                # a gather point (e.g. the flush loop is wedged): the
                # batcher's own expiry checks normally fire first.
                subset, version = await asyncio.wait_for(
                    self._batcher.submit(representation, deadline=deadline),
                    deadline.remaining() + 0.05,
                )
            else:
                subset, version = await self._batcher.submit(representation)
        except QueueFull as exc:
            return _json_response(
                429,
                {"error": str(exc)},
                headers=(_retry_after_header(exc.retry_after_s),),
            )
        except DeadlineExceeded as exc:
            return _json_response(504, {"error": str(exc)})
        except (TimeoutError, asyncio.TimeoutError):
            self.metrics.observe_deadline_exceeded()
            return _json_response(
                504,
                {"error": "request deadline expired awaiting a batch slot"},
            )
        except BatcherStalled as exc:
            return _json_response(503, {"error": str(exc)})
        except BatcherClosed:
            return _json_response(503, {"error": "server is draining"})
        latency_ms = (self._clock() - start) * 1000.0
        # `version` rode along with the subset from _select_batch: it is
        # the version whose engine computed this result, not whatever the
        # registry holds now — a reload during the await cannot mislabel
        # the response (the TOCTOU repolint's ASYNC904 exists to catch).
        return _json_response(
            200,
            {
                "subset": [int(i) for i in subset],
                "n_selected": len(subset),
                "n_features": version.n_features,
                "model_version": version.name,
                "latency_ms": round(latency_ms, 3),
            },
        )

    def _request_deadline(self, payload: dict) -> Deadline | None:
        """The request's latency budget: min(server cap, client ask)."""
        budget_ms = self.request_timeout_ms
        client_ms = payload.get("timeout_ms")
        if client_ms is not None:
            if not isinstance(client_ms, (int, float)) or client_ms <= 0:
                raise _BadRequest("'timeout_ms' must be a positive number")
            budget_ms = (
                float(client_ms)
                if budget_ms is None
                else min(budget_ms, float(client_ms))
            )
        if budget_ms is None:
            return None
        return Deadline.after_ms(budget_ms, clock=self._clock)

    def _parse_task(self, payload: dict) -> np.ndarray:
        """Representation from the request: precomputed, or raw task data.

        Its width is checked against the serving model here, at admission,
        so a request of the wrong width gets its own 400 instead of failing
        the batch it would have ridden in (the engine's own check stays as
        the backstop for a hot swap to a model of another width).
        """
        if "representation" in payload:
            try:
                rep = np.asarray(payload["representation"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise _BadRequest(f"non-numeric representation: {exc}") from exc
            if rep.ndim != 1:
                raise _BadRequest("'representation' must be a flat number list")
        elif "features" in payload and "labels" in payload:
            try:
                features = np.asarray(payload["features"], dtype=np.float64)
                labels = np.asarray(payload["labels"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise _BadRequest(f"non-numeric task data: {exc}") from exc
            if features.ndim != 2:
                raise _BadRequest("'features' must be a 2-D number matrix")
            if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
                raise _BadRequest("'labels' must align with the feature rows")
            rep = self.registry.representation(features, labels)
        else:
            raise _BadRequest(
                "request needs either 'representation' or 'features'+'labels'"
            )
        assert self._serving is not None
        try:
            check_representations(self._serving[0].agent, [rep])
        except DataValidationError as exc:
            raise _BadRequest(str(exc)) from exc
        return rep


def _json_response(
    status: int,
    payload: dict[str, Any],
    headers: tuple[tuple[str, str], ...] = (),
) -> _Response:
    return _Response(
        status, "application/json", json.dumps(payload).encode("utf-8"), headers
    )
