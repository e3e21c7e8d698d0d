"""Fig. 9 — further training on unseen tasks.

After the multi-task fit, each unseen task is trained on directly (paper
Section IV-D), starting from the fitted model, and the greedy subset is
checkpointed along the way; every checkpointed subset is evaluated with
the downstream SVM, producing the Avg F1 / Avg AUC growth curves.

Expected shape: both curves rise from the zero-shot level and saturate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.config import PAFeatConfig
from repro.core.pafeat import FurtherTrainRecord, PAFeat
from repro.data.tasks import Task, TaskSuite
from repro.analysis.reporting import render_series
from repro.experiments.runner import evaluate_selection, load_suite, make_config


@dataclass
class FurtherTrainCurve:
    """Avg metric values at each checkpointed iteration."""

    dataset: str
    iterations: list[int] = field(default_factory=list)
    avg_f1: list[float] = field(default_factory=list)
    avg_auc: list[float] = field(default_factory=list)


def refine_tasks(
    train: TaskSuite,
    config: PAFeatConfig,
    tasks: Sequence[Task],
    further_iterations: int,
    checkpoint_every: int,
) -> dict[str, list[FurtherTrainRecord]]:
    """Each task's further-training records, each refined from the fit.

    ``further_train`` keeps a task's refinement in the model: weights,
    Adam moments, target network, replay and RNG streams move on, and the
    model's seed sequence seeds the next task's reward classifier
    differently.  Refined in turn on one model, task k would start where
    task k-1 stopped, so every task refines its own fit of ``config``,
    which the determinism contract makes the same fitted model.
    """
    return {
        task.name: PAFeat(config)
        .fit(train)
        .further_train(task, further_iterations, checkpoint_every=checkpoint_every)
        for task in tasks
    }


def run(
    dataset: str = "water-quality",
    scale: str = "mini",
    further_iterations: int = 60,
    checkpoint_every: int = 15,
    mfr: float = 0.6,
    seed: int = 0,
    max_tasks: int | None = 3,
) -> FurtherTrainCurve:
    """Fit, then further-train each unseen task and trace quality."""
    suite = load_suite(dataset, scale)
    train, test = suite.split_rows(0.7, np.random.default_rng(seed))
    config = make_config(scale, mfr=mfr, seed=seed)
    model = PAFeat(config).fit(train)

    test_by_index = {task.label_index: task for task in test.unseen_tasks}
    tasks = train.unseen_tasks[:max_tasks] if max_tasks else train.unseen_tasks

    # Zero-shot point (iteration 0) plus the checkpointed curve.
    checkpoints: list[int] = [0]
    per_task_f1: dict[str, list[float]] = {}
    per_task_auc: dict[str, list[float]] = {}
    for task in tasks:
        subset = model.select(task)
        scores = evaluate_selection(subset, task, test_by_index[task.label_index], seed)
        per_task_f1[task.name] = [scores["f1"]]
        per_task_auc[task.name] = [scores["auc"]]

    refined = refine_tasks(train, config, tasks, further_iterations, checkpoint_every)
    for task in tasks:
        for record in refined[task.name]:
            if record.iteration not in checkpoints:
                checkpoints.append(record.iteration)
            scores = evaluate_selection(
                record.subset, task, test_by_index[task.label_index], seed
            )
            per_task_f1[task.name].append(scores["f1"])
            per_task_auc[task.name].append(scores["auc"])

    checkpoints.sort()
    n_points = min(len(values) for values in per_task_f1.values())
    curve = FurtherTrainCurve(dataset=dataset)
    curve.iterations = checkpoints[:n_points]
    curve.avg_f1 = [
        float(np.mean([per_task_f1[name][i] for name in per_task_f1]))
        for i in range(n_points)
    ]
    curve.avg_auc = [
        float(np.mean([per_task_auc[name][i] for name in per_task_auc]))
        for i in range(n_points)
    ]
    return curve


def render(curve: FurtherTrainCurve) -> str:
    """Paper-style growth-curve block."""
    return render_series(
        "iteration",
        curve.iterations,
        {"Avg F1": curve.avg_f1, "Avg AUC": curve.avg_auc},
        title=f"Fig. 9 ({curve.dataset}): further training on unseen tasks",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run(scale="smoke", further_iterations=30)))


if __name__ == "__main__":  # pragma: no cover
    main()
