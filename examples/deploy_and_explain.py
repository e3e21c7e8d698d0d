"""Deployment workflow: train offline, persist, serve, and explain.

A realistic production split:

1. an offline job trains PA-FEAT and writes a model artifact to disk;
2. an online service loads the artifact (no training code needed) and
   answers arriving tasks in milliseconds;
3. an analyst asks *why* a feature was chosen — the diagnostics run the
   greedy episode ``select`` runs and show the correlation / redundancy /
   Q-gap behind every decision.

Run with::

    python examples/deploy_and_explain.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    ClassifierConfig,
    PAFeat,
    PAFeatConfig,
    load_mini_dataset,
    load_model,
    save_model,
)
from repro.core.analysis import (
    explain_selection,
    q_gap_statistics,
    render_explanation,
)


def main() -> None:
    suite = load_mini_dataset("emotions")
    train, _ = suite.split_rows(0.7, np.random.default_rng(5))

    # ------------------------------------------------------------------
    # Offline: train and persist.
    # ------------------------------------------------------------------
    config = PAFeatConfig(
        n_iterations=200, classifier=ClassifierConfig(n_epochs=12), seed=5
    )
    print(f"[offline] training on {train.n_seen} seen tasks of {suite.name}...")
    model = PAFeat(config).fit(train)

    artifact_dir = Path(tempfile.mkdtemp()) / "pafeat-emotions"
    save_model(model, artifact_dir)
    files = sorted(p.name for p in artifact_dir.iterdir())
    print(f"[offline] artifact written: {artifact_dir} {files}")

    # ------------------------------------------------------------------
    # Online: load and serve (a separate process in real life).
    # ------------------------------------------------------------------
    service = load_model(artifact_dir)
    task = train.unseen_tasks[0]
    start = time.perf_counter()
    subset = service.select(task)
    print(f"\n[online] '{task.name}' -> {len(subset)} features "
          f"in {(time.perf_counter() - start) * 1000:.1f} ms")
    original = model.select(task)
    print(f"[online] matches the in-memory model: {subset == original}")

    # ------------------------------------------------------------------
    # Explain: replay the greedy episode with annotations.
    # ------------------------------------------------------------------
    decisions = explain_selection(service, task)
    print()
    print(render_explanation(decisions, max_rows=12))

    stats = q_gap_statistics(service, task)
    print(f"\ndecision confidence: mean |q-gap| {stats.mean_abs_gap:.4f} "
          f"(min {stats.min_abs_gap:.4f}, max {stats.max_abs_gap:.4f}) "
          f"over {stats.n_decisions} decisions, {stats.n_selected} selected")

    picked = [d for d in decisions if d.selected]
    if picked:
        top = max(picked, key=lambda d: d.q_gap)
        print(f"most confident pick: {top.feature_name} "
              f"(|corr| {top.correlation:.2f}, percentile {top.percentile:.2f})")


if __name__ == "__main__":
    main()
