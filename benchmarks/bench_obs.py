"""Bench: observability must be free when off and inert when on.

The obs layer is wired through the training hot loop — span guards in
``train_iteration`` (the spans are also the phase timers), telemetry
guards in ``commit_episode``.  Two properties make that acceptable and
this bench enforces both:

* **non-interference (parity)** — telemetry is strictly read-only with
  respect to training state: a fit with ``telemetry=<dir>`` must leave a
  bit-identical trainer (replay census + trajectory fingerprints + agent
  action count) to the same fit with telemetry off.  The probe reads
  ``scheduler.last_progress`` and the reward-cache counters; it consumes
  no RNG and mutates nothing.
* **disabled-path overhead** — with telemetry off the per-episode cost of
  the instrumentation (null spans, ``is not None`` guards) must stay
  under 2% of measured episode time.  The cost is measured directly by
  micro-timing the disabled primitives and scaling by a deliberately
  generous per-episode operation count.

The telemetry-on run's output is kept at
``benchmarks/results/obs_telemetry/`` (events.jsonl + trace.jsonl) — CI
uploads it as the sample-telemetry artifact — and the bench additionally
asserts it is well-formed: run_start/run_end present, one iteration
event per training iteration, a non-empty trace, and a last iteration
whose phase fractions match the fill/update shares recomputed from that
trace (the phases are a view of the spans).

Writes ``BENCH_obs.json`` at the repo root; exits 1 on gate failure::

    python benchmarks/bench_obs.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

from repro.core.config import ClassifierConfig, EnvConfig, PAFeatConfig  # noqa: E402
from repro.core.pafeat import PAFeat  # noqa: E402
from repro.data.synthetic import SyntheticSpec, generate_suite  # noqa: E402
from repro.obs.telemetry import read_events, summarize_events  # noqa: E402
from repro.obs.trace import NULL_TRACER, read_trace  # noqa: E402

SPEC = SyntheticSpec(
    name="bench-obs",
    n_instances=240,
    n_features=14,
    n_seen=3,
    n_unseen=1,
    task_informative=3,
    n_concepts=2,
    seed=11,
)
SEED = 0
ITERATIONS = 3
EPISODES_PER_ITERATION = 8
TIMING_EPISODES = 32
#: Disabled-path operations charged per episode.  Reality is one guard per
#: episode plus 3 null spans and one guard per *iteration*; 32 is an order
#: of magnitude of headroom so the gate stays meaningful if instrumentation
#: grows.
DISABLED_OPS_PER_EPISODE = 32
OVERHEAD_GATE = 0.02
#: Absolute tolerance between telemetry phase fractions (rounded to 6
#: places) and the shares recomputed from the trace (9-place durations).
PHASES_TOLERANCE = 1e-5
SAMPLE_DIR = REPO_ROOT / "benchmarks" / "results" / "obs_telemetry"


def config() -> PAFeatConfig:
    return PAFeatConfig(
        n_iterations=ITERATIONS,
        episodes_per_iteration=EPISODES_PER_ITERATION,
        updates_per_iteration=2,
        seed=SEED,
        env=EnvConfig(max_feature_ratio=0.6),
        classifier=ClassifierConfig(n_epochs=4),
    )


def fingerprint(trainer) -> str:
    """Order-sensitive digest of replay state and the agent's action count."""
    digest = hashlib.sha256()
    registry = trainer.registry
    for task_id in registry.task_ids():
        buffer = registry.buffer(task_id)
        digest.update(f"{task_id}:{len(buffer)}".encode())
        for trajectory in buffer.recent_trajectories():
            digest.update(repr(trajectory.selected_features).encode())
            digest.update(f"{trajectory.final_reward:.17g}".encode())
    digest.update(str(trainer.agent.action_count).encode())
    return digest.hexdigest()


def run_fit(telemetry: Path | None) -> tuple[PAFeat, float]:
    train, _ = generate_suite(SPEC).split_rows(0.7, np.random.default_rng(SEED))
    model = PAFeat(config())
    start = time.perf_counter()
    model.fit(train, telemetry=telemetry)
    return model, time.perf_counter() - start


def measure_episode_seconds(trainer) -> float:
    """Mean per-episode wall time of an untelemetered buffer fill."""
    start = time.perf_counter()
    trainer.buffer_filling(TIMING_EPISODES)
    return (time.perf_counter() - start) / TIMING_EPISODES


def measure_disabled_primitives(n: int = 200_000) -> dict:
    """Per-call cost of the two disabled-path shapes the hot loop pays."""
    start = time.perf_counter()
    for _ in range(n):
        with NULL_TRACER.span("bench"):
            pass
    span_cost = (time.perf_counter() - start) / n

    telemetry = None
    sink = 0
    start = time.perf_counter()
    for _ in range(n):
        if telemetry is not None:
            sink += 1
    guard_cost = (time.perf_counter() - start) / n
    assert sink == 0
    return {"null_span_seconds": span_cost, "none_guard_seconds": guard_cost}


def check_sample_telemetry(failures: list[str]) -> dict:
    events = read_events(SAMPLE_DIR)
    summary = summarize_events(events)
    kinds = [event.get("type") for event in events]
    if kinds.count("run_start") != 1:
        failures.append(f"expected exactly one run_start event, saw {kinds.count('run_start')}")
    if kinds.count("run_end") != 1:
        failures.append("telemetry missing run_end (fit did not complete cleanly?)")
    if kinds.count("iteration") != ITERATIONS:
        failures.append(
            f"expected {ITERATIONS} iteration events, saw {kinds.count('iteration')}"
        )
    if kinds.count("episode") != ITERATIONS * EPISODES_PER_ITERATION:
        failures.append(
            f"expected {ITERATIONS * EPISODES_PER_ITERATION} episode events, "
            f"saw {kinds.count('episode')}"
        )
    spans = read_trace(SAMPLE_DIR / "trace.jsonl")
    if not spans:
        failures.append("trace.jsonl is empty")
    span_names = {span.get("name") for span in spans}
    for expected in ("train.iteration", "train.fill", "train.update"):
        if expected not in span_names:
            failures.append(f"trace missing '{expected}' spans")
    seconds = {
        phase: sum(span["duration_s"] for span in spans if span["name"] == phase)
        for phase in ("train.fill", "train.update")
    }
    spent = sum(seconds.values())
    iterations = [event for event in events if event.get("type") == "iteration"]
    phases = iterations[-1].get("phases", {}) if iterations else {}
    for phase, phase_seconds in seconds.items():
        expected_fraction = phase_seconds / spent if spent > 0.0 else 0.0
        if abs(phases.get(phase, -1.0) - expected_fraction) > PHASES_TOLERANCE:
            failures.append(
                f"last iteration's phases[{phase!r}] = {phases.get(phase)} is "
                f"not the trace's share {expected_fraction:.6f}"
            )
    return {
        "events": len(events),
        "spans": len(spans),
        "episodes": summary["counts"]["episodes"],
        "iterations": summary["counts"]["iterations"],
        "completed": "run_end" in summary,
    }


def main() -> int:
    print(
        f"bench_obs: {ITERATIONS}x{EPISODES_PER_ITERATION} episodes per fit, "
        f"overhead gate {OVERHEAD_GATE:.0%}"
    )
    failures: list[str] = []

    model_off, seconds_off = run_fit(None)
    fp_off = fingerprint(model_off.trainer)
    print(f"  telemetry off: {seconds_off:.2f}s fit")

    if SAMPLE_DIR.exists():
        shutil.rmtree(SAMPLE_DIR)
    SAMPLE_DIR.mkdir(parents=True)
    model_on, seconds_on = run_fit(SAMPLE_DIR)
    fp_on = fingerprint(model_on.trainer)
    print(f"  telemetry on:  {seconds_on:.2f}s fit")

    if fp_off != fp_on:
        failures.append(
            f"parity violated: telemetry-on fingerprint {fp_on[:16]} != "
            f"telemetry-off {fp_off[:16]}"
        )

    sample = check_sample_telemetry(failures)
    print(f"  sample telemetry: {sample['events']} events, {sample['spans']} spans")

    # Disabled-path overhead: micro-time the null primitives, charge a
    # generous per-episode count, compare to real episode time.
    episode_seconds = measure_episode_seconds(model_off.trainer)
    primitives = measure_disabled_primitives()
    per_episode_cost = DISABLED_OPS_PER_EPISODE * max(
        primitives["null_span_seconds"], primitives["none_guard_seconds"]
    )
    overhead = per_episode_cost / episode_seconds
    print(
        f"  disabled path: {primitives['null_span_seconds'] * 1e9:.0f}ns/span, "
        f"{overhead:.4%} of {episode_seconds * 1e3:.1f}ms episode"
    )
    if overhead >= OVERHEAD_GATE:
        failures.append(
            f"disabled-path overhead {overhead:.4%} >= {OVERHEAD_GATE:.0%} gate"
        )

    result = {
        "bench": "obs",
        "iterations": ITERATIONS,
        "episodes_per_iteration": EPISODES_PER_ITERATION,
        "fit_seconds_off": seconds_off,
        "fit_seconds_on": seconds_on,
        "fingerprint_off": fp_off,
        "fingerprint_on": fp_on,
        "parity_ok": fp_off == fp_on,
        "episode_seconds": episode_seconds,
        "disabled_primitives": primitives,
        "disabled_ops_per_episode": DISABLED_OPS_PER_EPISODE,
        "disabled_overhead_fraction": overhead,
        "overhead_gate": OVERHEAD_GATE,
        "sample_telemetry": sample,
        "failures": failures,
    }
    out = REPO_ROOT / "BENCH_obs.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("all gates green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
