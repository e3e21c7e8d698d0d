"""Serving demo: train a model, stand up the selection server, query it.

A self-contained tour of the ``repro.serve`` stack — the same components
``python -m repro serve`` wires together, driven in-process so the whole
round trip (train → save → registry load → HTTP select → metrics) runs in
one short script with no second terminal::

    python examples/serve_client.py

The server runs on a background thread with its own asyncio loop; the
client side is plain ``urllib`` against the JSON endpoints.
"""

import asyncio
import json
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro import ClassifierConfig, PAFeat, PAFeatConfig, load_mini_dataset, save_model
from repro.data.stats import pearson_representation
from repro.serve import ModelRegistry, SelectionServer


def call(method: str, url: str, payload: dict | None = None):
    body = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request) as response:
        raw = response.read().decode()
    return json.loads(raw) if raw.startswith(("{", "[")) else raw


def main() -> None:
    # 1. Train a small model and publish it as a versioned artifact —
    #    exactly what `python -m repro train` + a copy into the registry
    #    root would do in a real deployment.
    suite = load_mini_dataset("water-quality")
    train, _ = suite.split_rows(0.7, np.random.default_rng(0))
    config = PAFeatConfig(
        n_iterations=60, classifier=ClassifierConfig(n_epochs=8), seed=0
    )
    start = time.perf_counter()
    model = PAFeat(config).fit(train)
    print(f"trained in {time.perf_counter() - start:.1f}s")

    with tempfile.TemporaryDirectory() as tmp:
        registry_root = Path(tmp) / "models"
        registry_root.mkdir()
        save_model(model, registry_root / "v0001")
        print(f"published model artifact {registry_root / 'v0001'}")

        # 2. Start the server (ephemeral port) on a background loop.
        registry = ModelRegistry(registry_root)
        server = SelectionServer(registry, port=0)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        asyncio.run_coroutine_threadsafe(server.start(), loop).result()
        host, port = server.address
        base = f"http://{host}:{port}"
        print(f"serving on {base}")

        # 3. Liveness: which model version is answering?
        print("healthz:", call("GET", f"{base}/healthz"))

        # 4. Select features for unseen tasks — both request shapes.
        task = train.unseen_tasks[0]
        raw = call("POST", f"{base}/select", {
            "features": task.features.tolist(),
            "labels": task.labels.tolist(),
        })
        print(f"{task.name}: subset {raw['subset']} "
              f"(server-side latency {raw['latency_ms']} ms)")

        representation = pearson_representation(task.features, task.labels)
        pre = call("POST", f"{base}/select", {
            "representation": representation.tolist(),
        })
        assert pre["subset"] == raw["subset"]
        print(f"{task.name}: same subset from a precomputed representation")

        # 5. A concurrent burst shares lockstep batches (watch the
        #    batch-size distribution in the metrics below).
        for other in train.unseen_tasks[1:]:
            call("POST", f"{base}/select", {
                "features": other.features.tolist(),
                "labels": other.labels.tolist(),
            })

        # 6. Operational surface: Prometheus-style metrics text.
        print("\n--- /metrics ---")
        print(call("GET", f"{base}/metrics").rstrip())

        # 7. Graceful drain, then tear the loop down.
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        print("\nserver drained; done")


if __name__ == "__main__":
    main()
