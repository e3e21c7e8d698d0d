"""Shared experiment machinery: method registry, timing, evaluation.

Every table/figure module funnels through :func:`run_method`, which knows
the three method families and times their phases separately:

* ``prepare_seconds`` — multi-task training before unseen tasks arrive
  (FEAT-family ``fit``, or the multilabel methods' cheap setup);
* ``iteration_seconds`` — mean wall-clock per training iteration (Table II
  "Iter" column, FEAT-family only);
* ``select_seconds`` — mean per-unseen-task response time (Table II "Exec"
  column / Fig. 7 latency axis); for single-task methods this *includes*
  their from-scratch training, exactly as the paper measures them.

Quality is the paper's protocol: an SVM trained on the selected subset's
training rows, scored on held-out rows; Avg F1 / Avg AUC across the
suite's unseen tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.baselines import (
    AllFeaturesSelector,
    FeatureSelector,
    AntTDSelector,
    GRROSelector,
    GoExploreSelector,
    KBestSelector,
    MARLFSSelector,
    MDFSSelector,
    PopArtSelector,
    RFESelector,
    RewardRandomizationSelector,
    SADRLFSSelector,
)
from repro.core.config import ClassifierConfig, EnvConfig, ITEConfig, PAFeatConfig
from repro.core.pafeat import PAFeat
from repro.data.catalog import load_dataset, load_mini_dataset
from repro.data.tasks import Task, TaskSuite
from repro.eval.svm import evaluate_subset_with_svm
from repro.obs.clock import monotonic

ExperimentScale = str  # "smoke" | "mini" | "full"

_SCALES: dict[str, dict] = {
    # CI-sized: seconds per method.
    "smoke": {
        "max_rows": 200,
        "max_features": 24,
        "n_iterations": 40,
        "n_runs": 1,
        "classifier_epochs": 8,
        "single_task_iterations": 40,
        "marlfs_episodes": 80,
    },
    # Default for benchmarks: minutes per table.
    "mini": {
        "max_rows": 500,
        "max_features": 48,
        "n_iterations": 400,
        "n_runs": 1,
        "classifier_epochs": 15,
        "single_task_iterations": 150,
        "marlfs_episodes": 400,
    },
    # Paper-approaching scale (hours).
    "full": {
        "max_rows": None,
        "max_features": None,
        "n_iterations": 2000,
        "n_runs": 5,
        "classifier_epochs": 30,
        "single_task_iterations": 2000,
        "marlfs_episodes": 2000,
    },
}


def scale_params(scale: ExperimentScale) -> dict:
    """Resolve a scale name to its parameter dict."""
    try:
        return dict(_SCALES[scale])
    except KeyError:
        valid = ", ".join(_SCALES)
        raise ValueError(f"unknown scale {scale!r}; expected one of: {valid}") from None


def load_suite(dataset: str, scale: ExperimentScale) -> TaskSuite:
    """Load the dataset twin at the requested scale."""
    params = scale_params(scale)
    if params["max_rows"] is None:
        return load_dataset(dataset)
    return load_mini_dataset(
        dataset, max_rows=params["max_rows"], max_features=params["max_features"]
    )


def make_config(
    scale: ExperimentScale,
    mfr: float = 0.6,
    seed: int = 0,
    use_its: bool = True,
    use_ite: bool = True,
    use_pe: bool = True,
) -> PAFeatConfig:
    """PA-FEAT config for a scale, with the Table III ablation switches."""
    params = scale_params(scale)
    return PAFeatConfig(
        n_iterations=params["n_iterations"],
        use_its=use_its,
        use_ite=use_ite,
        seed=seed,
        env=EnvConfig(max_feature_ratio=mfr),
        ite=ITEConfig(use_policy_exploitation=use_pe),
        classifier=ClassifierConfig(n_epochs=params["classifier_epochs"]),
    )


@dataclass
class MethodResult:
    """Timing + quality outcome of one method on one dataset run."""

    method: str
    avg_f1: float
    avg_auc: float
    prepare_seconds: float
    iteration_seconds: float
    select_seconds: float
    per_task: dict[str, dict[str, float]] = field(default_factory=dict)
    subsets: dict[str, tuple[int, ...]] = field(default_factory=dict)


def evaluate_selection(
    subset: tuple[int, ...],
    train_task: Task,
    test_task: Task,
    seed: int = 0,
) -> dict[str, float]:
    """SVM-on-subset evaluation (paper Section IV-A3)."""
    return evaluate_subset_with_svm(
        subset,
        train_task.features,
        train_task.labels,
        test_task.features,
        test_task.labels,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Method registry
# ---------------------------------------------------------------------------

#: FEAT-family methods: factories taking a PAFeatConfig.
FEAT_METHODS: dict[str, Callable[[PAFeatConfig], PAFeat]] = {
    "pa-feat": PAFeat,
    "popart": PopArtSelector,
    "go-explore": GoExploreSelector,
    "rr": RewardRandomizationSelector,
}

#: Table III ablation variants as (use_its, use_ite, use_pe) switches.
ABLATION_VARIANTS: dict[str, tuple[bool, bool, bool]] = {
    "pa-feat": (True, True, True),
    "pa-feat-no-its": (False, True, True),
    "pa-feat-no-ite": (True, False, True),
    "pa-feat-no-both": (False, False, True),
    "pa-feat-no-pe": (True, True, False),
}

#: Methods whose full cost is paid at selection time.
SINGLE_TASK_METHODS = ("k-best", "rfe", "sadrlfs", "marlfs")

#: Multi-label methods re-running over seen + arriving labels per selection.
MULTILABEL_METHODS = ("grro-ls", "ant-td", "mdfs")

ALL_METHOD_NAMES = (
    tuple(FEAT_METHODS)
    + tuple(name for name in ABLATION_VARIANTS if name != "pa-feat")
    + SINGLE_TASK_METHODS
    + MULTILABEL_METHODS
    + ("all-features",)
)


def _build_simple_selector(
    name: str, mfr: float, scale: ExperimentScale, seed: int
) -> FeatureSelector:
    params = scale_params(scale)
    classifier = ClassifierConfig(n_epochs=params["classifier_epochs"])
    if name == "k-best":
        return KBestSelector(max_feature_ratio=mfr)
    if name == "rfe":
        return RFESelector(max_feature_ratio=mfr, seed=seed)
    if name == "grro-ls":
        return GRROSelector(max_feature_ratio=mfr)
    if name == "mdfs":
        return MDFSSelector(max_feature_ratio=mfr, seed=seed)
    if name == "ant-td":
        return AntTDSelector(max_feature_ratio=mfr, seed=seed)
    if name == "all-features":
        return AllFeaturesSelector()
    if name == "sadrlfs":
        config = make_config(scale, mfr=mfr, seed=seed, use_its=False, use_ite=False)
        return SADRLFSSelector(
            max_feature_ratio=mfr,
            config=config,
            n_iterations=params["single_task_iterations"],
            seed=seed,
        )
    if name == "marlfs":
        return MARLFSSelector(
            max_feature_ratio=mfr,
            n_episodes=params["marlfs_episodes"],
            classifier_config=classifier,
            seed=seed,
        )
    raise ValueError(f"unknown simple method {name!r}")


def run_method(
    name: str,
    train_suite: TaskSuite,
    test_suite: TaskSuite,
    scale: ExperimentScale = "mini",
    mfr: float = 0.6,
    seed: int = 0,
) -> MethodResult:
    """Run one method end-to-end on one train/test suite pair."""
    if name in FEAT_METHODS or name in ABLATION_VARIANTS:
        return _run_feat_method(name, train_suite, test_suite, scale, mfr, seed)
    selector = _build_simple_selector(name, mfr, scale, seed)
    start = monotonic()
    selector.prepare(train_suite)
    prepare_seconds = monotonic() - start
    return _select_and_score(
        name, selector.select, train_suite, test_suite, seed,
        prepare_seconds=prepare_seconds, iteration_seconds=0.0,
    )


def _run_feat_method(
    name: str,
    train_suite: TaskSuite,
    test_suite: TaskSuite,
    scale: ExperimentScale,
    mfr: float,
    seed: int,
) -> MethodResult:
    if name in ABLATION_VARIANTS:
        use_its, use_ite, use_pe = ABLATION_VARIANTS[name]
        config = make_config(
            scale, mfr=mfr, seed=seed, use_its=use_its, use_ite=use_ite, use_pe=use_pe
        )
        model = PAFeat(config)
    else:
        config = make_config(scale, mfr=mfr, seed=seed)
        model = FEAT_METHODS[name](config)
    start = monotonic()
    model.fit(train_suite)
    prepare_seconds = monotonic() - start
    n_iterations = len(model.trainer.history) if model.trainer else 1
    return _select_and_score(
        name, model.select, train_suite, test_suite, seed,
        prepare_seconds=prepare_seconds,
        iteration_seconds=prepare_seconds / max(1, n_iterations),
        model=model,
    )


def _select_and_score(
    name: str,
    select: Callable[[Task], tuple[int, ...]],
    train_suite: TaskSuite,
    test_suite: TaskSuite,
    seed: int,
    prepare_seconds: float,
    iteration_seconds: float,
    model: PAFeat | None = None,
) -> MethodResult:
    test_by_index = {task.label_index: task for task in test_suite.unseen_tasks}
    per_task: dict[str, dict[str, float]] = {}
    subsets: dict[str, tuple[int, ...]] = {}
    select_times: list[float] = []
    for task in train_suite.unseen_tasks:
        start = monotonic()
        subset = select(task)
        select_times.append(monotonic() - start)
        subsets[task.name] = subset
        per_task[task.name] = evaluate_selection(
            subset, task, test_by_index[task.label_index], seed=seed
        )
    del model
    f1_values = [scores["f1"] for scores in per_task.values()]
    auc_values = [scores["auc"] for scores in per_task.values()]
    return MethodResult(
        method=name,
        avg_f1=float(np.mean(f1_values)) if f1_values else 0.0,
        avg_auc=float(np.mean(auc_values)) if auc_values else 0.0,
        prepare_seconds=prepare_seconds,
        iteration_seconds=iteration_seconds,
        select_seconds=float(np.mean(select_times)) if select_times else 0.0,
        per_task=per_task,
        subsets=subsets,
    )
