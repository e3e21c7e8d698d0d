"""End-to-end selection-server tests over real sockets (port 0, loopback).

Each test spins the full stack — registry, engine, micro-batcher, asyncio
listener — inside :func:`asyncio.run`, talks to it with a minimal raw
HTTP/1.1 client, and asserts on the JSON that comes back.  The graceful
shutdown test delivers a real SIGTERM to the process and verifies the
server drains and returns.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal

import numpy as np
import pytest

from repro import save_model
from repro.data.stats import pearson_representation
from repro.serve import ModelRegistry, SelectionServer, ServeMetrics


@pytest.fixture(scope="module")
def model_artifact(fitted_tiny_model, tmp_path_factory):
    root = tmp_path_factory.mktemp("server-artifact")
    return save_model(fitted_tiny_model, root / "model")


async def http(host, port, method, path, payload=None, raw_body=None):
    """Tiny HTTP/1.1 client: returns (status, parsed-JSON-or-text body)."""
    body = raw_body if raw_body is not None else (
        json.dumps(payload).encode() if payload is not None else b""
    )
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


async def http_full(host, port, method, path, payload=None):
    """Like :func:`http` but also returns the response headers."""
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
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    parsed = (
        json.loads(content.decode())
        if headers.get("content-type", "").startswith("application/json")
        else content.decode()
    )
    return status, headers, parsed


def run_with_server(registry, scenario, **server_kwargs):
    """Start a server on an ephemeral port, run the scenario, stop it."""

    async def main():
        server = SelectionServer(registry, port=0, **server_kwargs)
        await server.start()
        host, port = server.address
        try:
            return await scenario(server, host, port)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestEndpoints:
    def test_healthz(self, model_artifact):
        async def scenario(server, host, port):
            return await http(host, port, "GET", "/healthz")

        status, body = run_with_server(ModelRegistry(model_artifact), scenario)
        assert status == 200
        assert body == {
            "status": "ok",
            "model_version": "model",
            "n_features": 12,
            "batcher_running": True,
            "breaker": "closed",
        }

    def test_select_with_representation_matches_model(
        self, model_artifact, fitted_tiny_model, tiny_split
    ):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        representation = pearson_representation(task.features, task.labels)

        async def scenario(server, host, port):
            return await http(
                host, port, "POST", "/select",
                payload={"representation": representation.tolist()},
            )

        status, body = run_with_server(ModelRegistry(model_artifact), scenario)
        assert status == 200
        assert tuple(body["subset"]) == fitted_tiny_model.select(task)
        assert body["n_selected"] == len(body["subset"])
        assert body["model_version"] == "model"
        assert body["latency_ms"] >= 0

    def test_select_with_raw_task_data_uses_cache(
        self, model_artifact, fitted_tiny_model, tiny_split
    ):
        train, _ = tiny_split
        task = train.unseen_tasks[1]
        payload = {
            "features": task.features.tolist(),
            "labels": task.labels.tolist(),
        }

        async def scenario(server, host, port):
            first = await http(host, port, "POST", "/select", payload=payload)
            second = await http(host, port, "POST", "/select", payload=payload)
            return first, second

        registry = ModelRegistry(model_artifact)
        (s1, b1), (s2, b2) = run_with_server(registry, scenario)
        assert (s1, s2) == (200, 200)
        assert tuple(b1["subset"]) == fitted_tiny_model.select(task)
        assert b1["subset"] == b2["subset"]
        stats = registry.cache_stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_concurrent_selects_share_batches(self, model_artifact, tiny_split):
        train, _ = tiny_split
        reps = [
            pearson_representation(task.features, task.labels).tolist()
            for task in train.unseen_tasks
        ]
        metrics = ServeMetrics()

        async def scenario(server, host, port):
            return await asyncio.gather(*(
                http(host, port, "POST", "/select", payload={"representation": rep})
                for rep in reps
            ))

        responses = run_with_server(
            ModelRegistry(model_artifact), scenario,
            metrics=metrics, max_latency_ms=50.0,
        )
        assert all(status == 200 for status, _ in responses)
        assert metrics.requests_total == len(reps)
        assert metrics.batches_total >= 1

    def test_metrics_exposition(self, model_artifact, tiny_split):
        train, _ = tiny_split
        rep = pearson_representation(
            train.unseen_tasks[0].features, train.unseen_tasks[0].labels
        ).tolist()

        async def scenario(server, host, port):
            await http(host, port, "POST", "/select", payload={"representation": rep})
            return await http(host, port, "GET", "/metrics")

        status, text = run_with_server(ModelRegistry(model_artifact), scenario)
        assert status == 200
        assert "repro_serve_requests_total 1" in text
        assert 'repro_serve_latency_ms{quantile="0.99"}' in text
        assert "repro_serve_cache_hit_rate" in text

    def test_reload_hot_swaps_to_new_version(self, model_artifact, tmp_path):
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")

        async def scenario(server, host, port):
            _, before = await http(host, port, "POST", "/reload")
            shutil.copytree(model_artifact, root / "v0002")
            _, after = await http(host, port, "POST", "/reload")
            _, health = await http(host, port, "GET", "/healthz")
            return before, after, health

        before, after, health = run_with_server(ModelRegistry(root), scenario)
        assert before == {
            "swapped": False,
            "model_version": "v0001",
            "breaker": "closed",
            "skipped": [],
        }
        assert after["swapped"] is True
        assert after["model_version"] == "v0002"
        assert health["model_version"] == "v0002"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({}, "needs either"),
            ({"representation": [[1.0]]}, "flat number list"),
            ({"features": [[1.0]], "labels": [1.0, 2.0]}, "align"),
            ({"features": [1.0], "labels": [1.0]}, "2-D"),
            ({"features": [["x"]], "labels": [1.0]}, "non-numeric"),
            ({"representation": ["x", "y"]}, "non-numeric representation"),
        ],
    )
    def test_bad_select_bodies_are_400(self, model_artifact, payload, fragment):
        async def scenario(server, host, port):
            return await http(host, port, "POST", "/select", payload=payload)

        status, body = run_with_server(ModelRegistry(model_artifact), scenario)
        assert status == 400
        assert fragment in body["error"]

    def test_wrong_feature_count_is_a_clean_error(self, model_artifact):
        async def scenario(server, host, port):
            return await http(
                host, port, "POST", "/select",
                payload={"representation": [0.5, 0.5]},  # model serves 12
            )

        status, body = run_with_server(ModelRegistry(model_artifact), scenario)
        assert status == 400
        assert "12-feature tasks" in body["error"]

    def test_wrong_width_request_does_not_fail_its_batch(
        self, model_artifact, fitted_tiny_model, tiny_split
    ):
        """Width is checked at admission: the valid request in the same
        flush window still gets the engine's subset."""
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        rep = pearson_representation(task.features, task.labels).tolist()
        metrics = ServeMetrics()

        async def scenario(server, host, port):
            return await asyncio.gather(
                http(host, port, "POST", "/select", payload={"representation": rep}),
                http(
                    host, port, "POST", "/select",
                    payload={"representation": [0.5, 0.5]},
                ),
            )

        (good, good_body), (bad, bad_body) = run_with_server(
            ModelRegistry(model_artifact), scenario,
            metrics=metrics, max_latency_ms=50.0,
        )
        assert (good, bad) == (200, 400)
        assert tuple(good_body["subset"]) == fitted_tiny_model.select(task)
        assert "representation 0 has 2 features" in bad_body["error"]
        assert metrics.batch_sizes == {1: 1}

    @pytest.mark.parametrize("declared", [b"abc", b"-5"])
    def test_invalid_content_length_is_400(self, model_artifact, declared):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /select HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: " + declared + b"\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            response = await reader.read()
            writer.close()
            head, _, content = response.partition(b"\r\n\r\n")
            return int(head.split(b" ", 2)[1]), json.loads(content)

        status, body = run_with_server(ModelRegistry(model_artifact), scenario)
        assert status == 400
        assert "invalid Content-Length" in body["error"]

    def test_invalid_json_is_400(self, model_artifact):
        async def scenario(server, host, port):
            return await http(
                host, port, "POST", "/select", raw_body=b"{not json"
            )

        status, _ = run_with_server(ModelRegistry(model_artifact), scenario)
        assert status == 400

    def test_unknown_path_is_404_and_wrong_method_is_405(self, model_artifact):
        async def scenario(server, host, port):
            missing = await http(host, port, "GET", "/nope")
            wrong = await http(host, port, "GET", "/select")
            return missing, wrong

        (s404, _), (s405, _) = run_with_server(ModelRegistry(model_artifact), scenario)
        assert (s404, s405) == (404, 405)

    def test_oversize_body_is_413(self, model_artifact):
        """The guard trips on the declared length, before reading the body."""

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /select HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: 8388609\r\n"  # 8 MiB + 1, never sent
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readline()
            writer.close()
            return int(head.split(b" ", 2)[1])

        status = run_with_server(ModelRegistry(model_artifact), scenario)
        assert status == 413


class TestOverload:
    def test_full_queue_sheds_429_with_retry_after(self, model_artifact, tiny_split):
        train, _ = tiny_split
        rep = pearson_representation(
            train.unseen_tasks[0].features, train.unseen_tasks[0].labels
        ).tolist()
        metrics = ServeMetrics()

        async def scenario(server, host, port):
            return await asyncio.gather(*(
                http_full(
                    host, port, "POST", "/select", payload={"representation": rep}
                )
                for _ in range(10)
            ))

        responses = run_with_server(
            ModelRegistry(model_artifact), scenario,
            metrics=metrics, max_queue_depth=1, max_batch_size=64,
            max_latency_ms=100.0,
        )
        shed = [r for r in responses if r[0] == 429]
        served = [r for r in responses if r[0] == 200]
        assert shed, "a depth-1 queue under a 10-deep burst never shed"
        assert served, "admission control shed every request"
        for _, headers, body in shed:
            assert int(headers["retry-after"]) >= 1
            assert "queue is full" in body["error"]
        assert metrics.shed_total["queue_full"] == len(shed)
        assert metrics.snapshot()["shed_total"]["queue_full"] == len(shed)

    def test_rate_limit_sheds_429_with_retry_after(self, model_artifact, tiny_split):
        train, _ = tiny_split
        rep = pearson_representation(
            train.unseen_tasks[0].features, train.unseen_tasks[0].labels
        ).tolist()
        metrics = ServeMetrics()

        async def scenario(server, host, port):
            first = await http_full(
                host, port, "POST", "/select", payload={"representation": rep}
            )
            second = await http_full(
                host, port, "POST", "/select", payload={"representation": rep}
            )
            return first, second

        first, second = run_with_server(
            ModelRegistry(model_artifact), scenario,
            metrics=metrics, rate_limit_rps=0.5, rate_limit_burst=1.0,
        )
        assert first[0] == 200
        status, headers, body = second
        assert status == 429
        assert "rate limit" in body["error"]
        assert int(headers["retry-after"]) >= 1
        assert metrics.shed_total["rate_limit"] == 1

    def test_expired_deadline_is_504(self, model_artifact, tiny_split):
        train, _ = tiny_split
        rep = pearson_representation(
            train.unseen_tasks[0].features, train.unseen_tasks[0].labels
        ).tolist()
        metrics = ServeMetrics()

        async def scenario(server, host, port):
            return await http(
                host, port, "POST", "/select", payload={"representation": rep}
            )

        status, body = run_with_server(
            ModelRegistry(model_artifact), scenario,
            metrics=metrics, request_timeout_ms=0.001,
        )
        assert status == 504
        assert "deadline" in body["error"]
        assert metrics.deadline_exceeded_total == 1

    def test_client_timeout_ms_caps_the_budget(self, model_artifact, tiny_split):
        train, _ = tiny_split
        rep = pearson_representation(
            train.unseen_tasks[0].features, train.unseen_tasks[0].labels
        ).tolist()

        async def scenario(server, host, port):
            expired = await http(
                host, port, "POST", "/select",
                payload={"representation": rep, "timeout_ms": 0.001},
            )
            invalid = await http(
                host, port, "POST", "/select",
                payload={"representation": rep, "timeout_ms": -5},
            )
            roomy = await http(
                host, port, "POST", "/select",
                payload={"representation": rep, "timeout_ms": 30000},
            )
            return expired, invalid, roomy

        expired, invalid, roomy = run_with_server(
            ModelRegistry(model_artifact), scenario
        )
        assert expired[0] == 504  # client budget, server default none
        assert invalid[0] == 400
        assert "timeout_ms" in invalid[1]["error"]
        assert roomy[0] == 200

    def test_dropped_connection_is_counted_not_crashed(self, model_artifact):
        metrics = ServeMetrics()

        async def scenario(server, host, port):
            _, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /select HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: 100\r\n"
                b"Connection: close\r\n\r\n"
            )  # declared body never arrives
            await writer.drain()
            writer.close()
            for _ in range(200):
                if metrics.dropped_connections_total:
                    break
                await asyncio.sleep(0.005)
            # The listener must still serve after the half-request.
            return await http(host, port, "GET", "/healthz")

        status, _ = run_with_server(
            ModelRegistry(model_artifact), scenario, metrics=metrics
        )
        assert status == 200
        assert metrics.dropped_connections_total == 1
        assert metrics.errors_total == 0  # a vanished client is not a bug
        snapshot = metrics.snapshot()
        assert snapshot["dropped_connections_total"] == 1


class TestReloadBreaker:
    def test_corrupt_publishes_trip_the_breaker_and_recovery_closes_it(
        self, model_artifact, tmp_path
    ):
        from tests.faults import corrupt_model_artifact

        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        metrics = ServeMetrics()

        async def scenario(server, host, port):
            # Publish a corrupt v0002: every reload keeps failing on it.
            shutil.copytree(model_artifact, root / "v0002")
            corrupt_model_artifact(root / "v0002")
            statuses = []
            for _ in range(2):  # failure_threshold trips here
                status, _, body = await http_full(host, port, "POST", "/reload")
                statuses.append((status, body["breaker"]))
            open_status, open_headers, open_body = await http_full(
                host, port, "POST", "/reload"
            )
            _, degraded = await http(host, port, "GET", "/healthz")
            still_serving, _ = await http(host, port, "GET", "/metrics")

            # The fault clears: the corrupt candidate is unpublished.
            shutil.rmtree(root / "v0002")
            await asyncio.sleep(0.06)  # breaker_reset_s elapses -> half-open
            recovered_status, _, recovered = await http_full(
                host, port, "POST", "/reload"
            )
            _, healthy = await http(host, port, "GET", "/healthz")
            return (
                statuses, open_status, open_headers, open_body,
                degraded, still_serving, recovered_status, recovered, healthy,
            )

        (
            statuses, open_status, open_headers, open_body,
            degraded, still_serving, recovered_status, recovered, healthy,
        ) = run_with_server(
            ModelRegistry(root), scenario,
            metrics=metrics, breaker_failure_threshold=2, breaker_reset_s=0.05,
        )
        # Both failing reloads return 200 (still serving last-good v0001)
        # but count as breaker failures; the second trips it open.
        assert [status for status, _ in statuses] == [200, 200]
        assert statuses[-1][1] == "open"
        # Open circuit: reloads refused outright with a retry hint.
        assert open_status == 503
        assert "circuit is open" in open_body["error"]
        assert int(open_headers["retry-after"]) >= 1
        assert open_body["model_version"] == "v0001"
        assert degraded["status"] == "degraded"
        assert still_serving == 200
        # Fault cleared + reset timeout elapsed: the half-open probe
        # succeeds and the breaker closes.
        assert recovered_status == 200
        assert recovered["breaker"] == "closed"
        assert healthy["status"] == "ok"
        assert healthy["model_version"] == "v0001"
        assert metrics.breaker_transitions_total >= 2  # tripped + recovered
        assert metrics.snapshot()["breaker_state"] == "closed"

    def test_breaker_state_is_exported_in_metrics_text(self, model_artifact):
        async def scenario(server, host, port):
            _, text = await http(host, port, "GET", "/metrics")
            return text

        text = run_with_server(ModelRegistry(model_artifact), scenario)
        assert "repro_serve_breaker_state 0" in text
        assert "repro_serve_breaker_transitions_total 0" in text


class TestLifecycle:
    def test_address_requires_start(self, model_artifact):
        server = SelectionServer(ModelRegistry(model_artifact))
        with pytest.raises(RuntimeError, match="not started"):
            server.address

    def test_sigterm_drains_and_returns(self, model_artifact, tiny_split):
        """`run()` must exit cleanly when the process receives SIGTERM."""
        train, _ = tiny_split
        rep = pearson_representation(
            train.unseen_tasks[0].features, train.unseen_tasks[0].labels
        ).tolist()

        async def main():
            server = SelectionServer(ModelRegistry(model_artifact), port=0)
            runner = asyncio.ensure_future(server.run(poll_interval_s=0.01))
            while server._server is None and not runner.done():
                await asyncio.sleep(0.01)
            host, port = server.address
            status, body = await http(
                host, port, "POST", "/select", payload={"representation": rep}
            )
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(runner, timeout=10)
            return status, body

        status, body = asyncio.run(main())
        assert status == 200
        assert body["n_selected"] >= 1

    def test_sigterm_under_concurrent_load_drains_every_accepted_request(
        self, model_artifact, tiny_split
    ):
        """In-flight requests at SIGTERM complete with real answers.

        A generous micro-batching budget keeps a burst of requests queued
        when the signal lands; the drain must flush them all — no hung
        futures, no connection resets, no 5xx.
        """
        train, _ = tiny_split
        reps = [
            pearson_representation(task.features, task.labels).tolist()
            for task in train.unseen_tasks
        ]
        metrics = ServeMetrics()

        async def main():
            server = SelectionServer(
                ModelRegistry(model_artifact), port=0,
                max_batch_size=64, max_latency_ms=250.0, metrics=metrics,
            )
            runner = asyncio.ensure_future(server.run(poll_interval_s=0.01))
            while server._server is None and not runner.done():
                await asyncio.sleep(0.01)
            host, port = server.address
            requests = [
                asyncio.ensure_future(
                    http(host, port, "POST", "/select",
                         payload={"representation": rep})
                )
                for rep in reps
            ]
            # Wait until the burst is actually queued server-side, then
            # yank the rug.
            for _ in range(500):
                if metrics.queue_depth_peak >= 1:
                    break
                await asyncio.sleep(0.005)
            os.kill(os.getpid(), signal.SIGTERM)
            responses = await asyncio.gather(*requests)
            await asyncio.wait_for(runner, timeout=10)
            return responses

        responses = asyncio.run(main())
        assert len(responses) == len(reps)
        assert all(status == 200 for status, _ in responses)
        assert all(body["n_selected"] >= 1 for _, body in responses)


class TestReloadConcurrency:
    """Regressions for the event-loop hazards the ASYNC9xx pass found.

    The original ``/reload`` ran model-file I/O synchronously on the event
    loop, and ``/select`` read the registry's version *after* awaiting the
    batch — so a reload landing mid-request could label a response with a
    version that never computed it.  Both fixes are pinned here.
    """

    def test_select_version_matches_the_model_that_computed_it(
        self, model_artifact, tiny_split, tmp_path
    ):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        rep = pearson_representation(task.features, task.labels).tolist()
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")

        async def scenario(server, host, port):
            real = server._select_batch

            def swap_after_compute(payloads):
                results = real(payloads)
                # A reload lands between the batch computation and the
                # response write: publish v0002 and swap the registry.
                if not (root / "v0002").exists():
                    shutil.copytree(model_artifact, root / "v0002")
                    server.registry.refresh()
                return results

            server._batcher._handler = swap_after_compute
            return await http(
                host, port, "POST", "/select", payload={"representation": rep}
            )

        status, body = run_with_server(ModelRegistry(root), scenario)
        assert status == 200
        # The response is labeled with the version that computed it — not
        # whatever the registry points at by the time the reply is written.
        assert body["model_version"] == "v0001"

    def test_slow_reload_does_not_stall_the_event_loop(
        self, model_artifact, tmp_path
    ):
        import time

        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        registry = ModelRegistry(root)
        real_refresh = registry.refresh

        def slow_refresh():
            time.sleep(0.5)  # disk stall during the rescan
            return real_refresh()

        registry.refresh = slow_refresh

        async def scenario(server, host, port):
            reload_task = asyncio.create_task(
                http(host, port, "POST", "/reload")
            )
            await asyncio.sleep(0.1)  # the slow reload is now in flight
            start = asyncio.get_running_loop().time()
            health_status, health = await http(host, port, "GET", "/healthz")
            elapsed = asyncio.get_running_loop().time() - start
            reload_status, _ = await reload_task
            return health_status, health, elapsed, reload_status

        health_status, health, elapsed, reload_status = run_with_server(
            registry, scenario
        )
        assert health_status == 200 and health["status"] == "ok"
        assert reload_status == 200
        # The loop answered healthz while the 0.5 s reload was running.
        assert elapsed < 0.4, f"healthz stalled {elapsed:.3f}s behind reload"

    def test_healthz_reports_the_served_pair(self, model_artifact):
        async def scenario(server, host, port):
            return await http(host, port, "GET", "/healthz")

        status, body = run_with_server(ModelRegistry(model_artifact), scenario)
        assert status == 200
        assert body["model_version"] == "model"
