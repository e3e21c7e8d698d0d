"""Bench: batched serving throughput vs sequential selection.

The serving subsystem's pitch is that B unseen tasks share batched
Q-forwards instead of running B episodes one at a time: at most m
forwards of B rows each, where sequential selects need up to B·m
single-row ones (the kernel's lookahead cuts both: a forward scores a
window of positions along a run of deselects while few rows are
active).  This bench puts a number on that: it fits a small PA-FEAT
model, then answers the same pool of unseen tasks two ways —

* **sequential** — per-task :meth:`repro.core.pafeat.PAFeat.select`, one
  greedy episode per call: the lockstep kernel of :mod:`repro.core.batch`
  at B=1, so the reported speedup is what batching adds to one kernel;
* **batched** — :class:`repro.serve.BatchedGreedyEngine.select_tasks` at
  lockstep batch sizes 1, 8 and 64.

Both paths include the |Pearson| representation step, so the comparison is
end to end per request.  Per-request latency in a lockstep batch is the
batch's wall time (every episode in it finishes together); p50/p99 come
from the same :class:`repro.serve.LatencyHistogram` the live ``/metrics``
endpoint uses.  The batched and sequential subsets are asserted equal
before any timing is recorded — a fast wrong answer is not a result.

Writes ``BENCH_serve.json`` at the repo root::

    python benchmarks/bench_serve.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.core.config import ClassifierConfig, EnvConfig, PAFeatConfig  # noqa: E402
from repro.core.pafeat import PAFeat  # noqa: E402
from repro.data.synthetic import SyntheticSpec, generate_suite  # noqa: E402
from repro.serve import BatchedGreedyEngine, LatencyHistogram  # noqa: E402

SPEC = SyntheticSpec(
    name="bench-serve",
    n_instances=400,
    n_features=16,
    n_seen=3,
    n_unseen=64,
    task_informative=4,
    n_concepts=2,
    seed=7,
)
BATCH_SIZES = (1, 8, 64)
REPEATS = 5


def best_of(repeats: int, fn) -> tuple[float, object]:
    """(best wall seconds, last result) over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def fit_model() -> PAFeat:
    config = PAFeatConfig(
        n_iterations=25,
        episodes_per_iteration=2,
        updates_per_iteration=2,
        seed=0,
        env=EnvConfig(max_feature_ratio=0.6),
        classifier=ClassifierConfig(n_epochs=5),
    )
    return PAFeat(config).fit(generate_suite(SPEC))


def bench_sequential(model: PAFeat, tasks) -> dict:
    def run():
        return {task.name: model.select(task) for task in tasks}

    wall, subsets = best_of(REPEATS, run)
    return {
        "tasks": len(tasks),
        "wall_s": round(wall, 6),
        "tasks_per_s": round(len(tasks) / wall, 1),
        "subsets": subsets,
    }


def bench_batched(model: PAFeat, tasks, batch_size: int) -> dict:
    engine = BatchedGreedyEngine.from_model(model, max_batch_size=batch_size)

    def run():
        latency = LatencyHistogram()
        answers: dict[str, tuple[int, ...]] = {}
        for start in range(0, len(tasks), batch_size):
            chunk = tasks[start : start + batch_size]
            begin = time.perf_counter()
            answers.update(engine.select_tasks(chunk))
            # Lockstep: every request in the chunk completes with the batch.
            elapsed_ms = (time.perf_counter() - begin) * 1000.0
            for _ in chunk:
                latency.observe(elapsed_ms)
        return latency, answers

    wall, (latency, answers) = best_of(REPEATS, run)
    return {
        "batch_size": batch_size,
        "wall_s": round(wall, 6),
        "tasks_per_s": round(len(tasks) / wall, 1),
        "p50_ms": round(latency.percentile(0.50), 3),
        "p99_ms": round(latency.percentile(0.99), 3),
        "subsets": answers,
    }


def main() -> int:
    print(f"fitting a {SPEC.n_features}-feature model "
          f"({SPEC.n_seen} seen tasks, {SPEC.n_unseen} unseen)...")
    model = fit_model()
    tasks = list(model._suite.unseen_tasks)

    sequential = bench_sequential(model, tasks)
    print(f"sequential: {sequential['tasks_per_s']} tasks/s "
          f"({sequential['wall_s'] * 1000:.1f} ms for {len(tasks)} tasks)")

    batched = []
    for batch_size in BATCH_SIZES:
        entry = bench_batched(model, tasks, batch_size)
        if entry.pop("subsets") != sequential["subsets"]:
            raise AssertionError(
                f"batched (batch_size={batch_size}) subsets diverged from "
                f"sequential — timing a wrong answer is meaningless"
            )
        entry["speedup_vs_sequential"] = round(
            entry["tasks_per_s"] / sequential["tasks_per_s"], 2
        )
        batched.append(entry)
        print(f"batched(batch={batch_size}): {entry['tasks_per_s']} tasks/s, "
              f"p50 {entry['p50_ms']} ms, p99 {entry['p99_ms']} ms, "
              f"{entry['speedup_vs_sequential']}x vs sequential")

    sequential.pop("subsets")
    at_64 = next(e for e in batched if e["batch_size"] == 64)
    report = {
        "bench": "serve",
        "spec": {
            "n_features": SPEC.n_features,
            "n_unseen_tasks": SPEC.n_unseen,
            "repeats": REPEATS,
        },
        "sequential": sequential,
        "batched": batched,
        "speedup_batch64": at_64["speedup_vs_sequential"],
        "parity": "batched subsets verified equal to sequential before timing",
    }
    out = REPO_ROOT / "BENCH_serve.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if at_64["speedup_vs_sequential"] < 3.0:
        print("WARNING: batch-64 speedup below the 3x acceptance bar")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
