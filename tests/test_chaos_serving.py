"""Chaos drills against a live socket server (``-m chaos``).

Each test boots the real serving stack on a loopback socket, injects a
production failure mode — a latency storm in the inference handler, a
corrupt published model version, mid-batch exceptions — and asserts the
resilience invariants the server guarantees:

* **zero corrupt responses**: every 200 carries the exact subset the
  model would produce sequentially; failures are typed errors, never
  partial data;
* **structured shedding**: overload yields 429s once the bounded queue
  fills, and the latency of *served* requests stays bounded;
* **self-healing**: ``/healthz`` reports ``ok`` within 5 seconds of the
  fault clearing;
* **observability**: every incident leaves a trace in ``/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time

import pytest

from repro import save_model
from repro.analysis import tsan
from repro.data.stats import pearson_representation
from repro.serve import ModelRegistry, SelectionServer, ServeMetrics
from tests.faults import (
    LatencyStorm,
    ScheduledFailures,
    corrupt_model_artifact,
)

pytestmark = pytest.mark.chaos

#: The self-healing budget from the acceptance criteria.
RECOVERY_BUDGET_S = 5.0


@pytest.fixture(autouse=True)
def thread_sanitizer():
    """Every chaos drill runs with the runtime sanitizer armed.

    CI additionally sets ``REPRO_TSAN=1`` for the whole process; arming it
    here too means local runs get the same lockset verdicts.  Any
    cross-context unlocked write observed during the drill fails the test.
    """
    previous = tsan.set_tsan_enabled(True)
    tsan.reset()
    yield
    found = tsan.violations()
    tsan.reset()
    tsan.set_tsan_enabled(previous)
    assert found == [], "tsan: " + "; ".join(v.describe() for v in found)


@pytest.fixture(scope="module")
def model_artifact(fitted_tiny_model, tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos-artifact")
    return save_model(fitted_tiny_model, root / "model")


async def http(host, port, method, path, payload=None):
    """Tiny HTTP/1.1 client: returns (status, parsed-JSON-or-text body)."""
    body = json.dumps(payload).encode() if payload is not None else b""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode() + body
    )
    await writer.drain()
    response = await reader.read()
    writer.close()
    head, _, content = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if b"application/json" in head:
        return status, json.loads(content.decode())
    return status, content.decode()


def run_with_server(registry, scenario, **server_kwargs):
    async def main():
        server = SelectionServer(registry, port=0, **server_kwargs)
        await server.start()
        host, port = server.address
        try:
            return await scenario(server, host, port)
        finally:
            await server.stop()

    return asyncio.run(main())


async def wait_until_healthy(host, port, budget_s=RECOVERY_BUDGET_S):
    """Poll ``/healthz`` until it reports ``ok``; returns the elapsed time."""
    start = time.monotonic()
    while True:
        status, body = await http(host, port, "GET", "/healthz")
        if status == 200 and body["status"] == "ok":
            return time.monotonic() - start
        if time.monotonic() - start > budget_s:
            pytest.fail(
                f"/healthz did not recover within {budget_s}s "
                f"(last: {status} {body})"
            )
        await asyncio.sleep(0.05)


def expected_subsets(model, tasks):
    """Ground truth: the sequential per-task selection, bit-exact."""
    return [list(model.select(task)) for task in tasks]


class TestLatencyStorm:
    def test_storm_sheds_bounded_and_never_corrupts(
        self, model_artifact, fitted_tiny_model, tiny_split
    ):
        train, _ = tiny_split
        tasks = train.unseen_tasks
        reps = [
            pearson_representation(task.features, task.labels).tolist()
            for task in tasks
        ]
        truth = expected_subsets(fitted_tiny_model, tasks)
        metrics = ServeMetrics()
        storm = LatencyStorm(0.02, 0.05, seed=1)
        n_requests = 32

        async def scenario(server, host, port):
            # Inject the storm into the live batcher's handler: every
            # flush now blocks 20-50 ms, like a GC stall or a slow disk.
            server._batcher._handler = storm.wrap(server._select_batch)
            storm.start()
            responses = await asyncio.gather(*(
                http(host, port, "POST", "/select",
                     payload={"representation": reps[i % len(reps)]})
                for i in range(n_requests)
            ))
            _, metrics_text = await http(host, port, "GET", "/metrics")
            storm.stop()
            recovery_s = await wait_until_healthy(host, port)
            return responses, metrics_text, recovery_s

        responses, metrics_text, recovery_s = run_with_server(
            ModelRegistry(model_artifact), scenario,
            metrics=metrics, max_batch_size=4, max_latency_ms=5.0,
            max_queue_depth=4,
        )

        assert storm.calls_delayed > 0, "the storm never hit the handler"
        served = shed = 0
        for i, (status, body) in enumerate(responses):
            if status == 200:
                served += 1
                # Zero corrupt responses: exact sequential ground truth.
                assert body["subset"] == truth[i % len(truth)]
            else:
                shed += 1
                assert status == 429, f"unexpected status {status}: {body}"
                assert "queue is full" in body["error"]
        assert served > 0, "the storm starved every request"
        assert shed > 0, "a depth-4 queue under a 32-deep storm never shed"
        assert served + shed == n_requests
        # Bounded shedding keeps the latency of *served* requests bounded:
        # at most (1 in-flight + 4 queued) batches ahead, each <= ~50 ms of
        # storm delay.  1 s is an order of magnitude of slack on top.
        assert metrics.request_latency.percentile(0.99) < 1000.0
        assert metrics.shed_total["queue_full"] == shed
        assert 'repro_serve_shed_total{reason="queue_full"}' in metrics_text
        assert recovery_s <= RECOVERY_BUDGET_S

    def test_storm_schedule_is_seeded(self):
        a = LatencyStorm(0.01, 0.05, seed=3)
        b = LatencyStorm(0.01, 0.05, seed=3)
        assert [a.next_delay() for _ in range(5)] == [
            b.next_delay() for _ in range(5)
        ]


class TestArtifactCorruption:
    def test_corrupt_publish_under_live_traffic_trips_breaker_then_recovers(
        self, model_artifact, fitted_tiny_model, tiny_split, tmp_path
    ):
        train, _ = tiny_split
        tasks = train.unseen_tasks
        reps = [
            pearson_representation(task.features, task.labels).tolist()
            for task in tasks
        ]
        truth = expected_subsets(fitted_tiny_model, tasks)
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        metrics = ServeMetrics()

        async def scenario(server, host, port):
            # A corrupt v0002 is published mid-flight.
            shutil.copytree(model_artifact, root / "v0002")
            corrupt_model_artifact(root / "v0002")
            breaker_states = []
            select_results = []
            for attempt in range(4):  # reload keeps failing on v0002
                _, reload_body = await http(host, port, "POST", "/reload")
                breaker_states.append(reload_body.get("breaker"))
                index = attempt % len(reps)
                select_results.append(
                    (index, await http(host, port, "POST", "/select",
                                       payload={"representation": reps[index]}))
                )
            _, metrics_text = await http(host, port, "GET", "/metrics")

            # Fault clears: the bad version is unpublished; the breaker's
            # reset timeout elapses and the next probe closes it.
            shutil.rmtree(root / "v0002")
            start = time.monotonic()
            while True:
                await asyncio.sleep(0.1)
                _, probe = await http(host, port, "POST", "/reload")
                if probe.get("breaker") == "closed":
                    break
                assert time.monotonic() - start < RECOVERY_BUDGET_S
            recovery_s = await wait_until_healthy(host, port)
            _, health = await http(host, port, "GET", "/healthz")
            return breaker_states, select_results, metrics_text, recovery_s, health

        breaker_states, select_results, metrics_text, recovery_s, health = (
            run_with_server(
                ModelRegistry(root), scenario,
                metrics=metrics, breaker_failure_threshold=2,
                breaker_reset_s=0.2,
            )
        )

        # The breaker tripped open during the corrupt-publish episode...
        assert "open" in breaker_states
        # ...while every select kept serving the last-good model exactly.
        for index, (status, body) in select_results:
            assert status == 200
            assert body["subset"] == truth[index]
            assert body["model_version"] == "v0001"
        assert "repro_serve_breaker_transitions_total" in metrics_text
        assert "repro_serve_breaker_state" in metrics_text
        # Recovery: healthz ok within budget, still on the trusted version.
        assert recovery_s <= RECOVERY_BUDGET_S
        assert health["model_version"] == "v0001"
        assert health["breaker"] == "closed"
        assert metrics.breaker_transitions_total >= 2


class TestMidBatchExceptions:
    def test_injected_batch_crashes_fail_typed_and_server_recovers(
        self, model_artifact, fitted_tiny_model, tiny_split
    ):
        train, _ = tiny_split
        tasks = train.unseen_tasks
        reps = [
            pearson_representation(task.features, task.labels).tolist()
            for task in tasks
        ]
        truth = expected_subsets(fitted_tiny_model, tasks)
        metrics = ServeMetrics()
        failures = ScheduledFailures({2})
        n_requests = 16

        async def scenario(server, host, port):
            server._batcher._handler = failures.wrap(server._select_batch)
            responses = await asyncio.gather(*(
                http(host, port, "POST", "/select",
                     payload={"representation": reps[i % len(reps)]})
                for i in range(n_requests)
            ))
            recovery_s = await wait_until_healthy(host, port)
            after_status, after_body = await http(
                host, port, "POST", "/select",
                payload={"representation": reps[0]},
            )
            _, metrics_text = await http(host, port, "GET", "/metrics")
            return responses, recovery_s, (after_status, after_body), metrics_text

        responses, recovery_s, after, metrics_text = run_with_server(
            ModelRegistry(model_artifact), scenario,
            metrics=metrics, max_batch_size=4, max_latency_ms=20.0,
        )

        assert failures.failures == 1, "the scheduled mid-batch crash never fired"
        crashed = 0
        for i, (status, body) in enumerate(responses):
            if status == 500:
                crashed += 1
                # The whole batch fails with the typed injected error —
                # never a partial or fabricated subset.
                assert "injected mid-batch failure" in body["error"]
            else:
                assert status == 200
                assert body["subset"] == truth[i % len(truth)]
        assert crashed > 0, "no request landed in the crashing batch"
        assert crashed < n_requests, "one bad batch must not fail everything"
        # One poisoned batch leaves the worker serving: the follow-up
        # request succeeds with an exact answer.
        assert recovery_s <= RECOVERY_BUDGET_S
        assert after[0] == 200
        assert after[1]["subset"] == truth[0]
        assert metrics.errors_total >= crashed
        assert "repro_serve_errors_total" in metrics_text
