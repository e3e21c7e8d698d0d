"""Beyond-the-paper ablations flagged in DESIGN.md §5.

* :func:`reward_cache_study` — hit rate and speedup of the subset-level
  reward memoization.
* :func:`task_representation_study` — Pearson vs mutual-information task
  representations for zero-shot transfer.
* :func:`exploration_constant_study` — sensitivity of ITE to the UCT
  constant ``c_e`` of Eqn. 9.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.batch import batched_greedy_subsets, served_subsets
from repro.core.config import ITEConfig
from repro.core.env import FeatureSelectionEnv
from repro.core.pafeat import PAFeat
from repro.data.stats import mutual_information_scores, pearson_representation
from repro.data.tasks import Task
from repro.obs.clock import monotonic
from repro.experiments.runner import (
    evaluate_selection,
    load_suite,
    make_config,
)


@dataclass
class CacheStudyResult:
    """Reward-cache ablation outcome."""

    hit_rate: float
    seconds_with_cache: float
    seconds_without_cache: float

    @property
    def speedup(self) -> float:
        if self.seconds_with_cache <= 0:
            return float("inf")
        return self.seconds_without_cache / self.seconds_with_cache


def reward_cache_study(
    dataset: str = "water-quality", scale: str = "smoke", seed: int = 0
) -> CacheStudyResult:
    """Train twice — cached vs uncached rewards — and compare wall-clock."""
    suite = load_suite(dataset, scale)
    train, _ = suite.split_rows(0.7, np.random.default_rng(seed))

    cached_model = PAFeat(make_config(scale, seed=seed))
    start = monotonic()
    cached_model.fit(train)
    cached_seconds = monotonic() - start
    hit_rates = [fn.hit_rate() for fn in cached_model.reward_fns.values()]

    uncached_model = PAFeat(make_config(scale, seed=seed))
    original_build = uncached_model._build_env

    def build_uncached(task: Task) -> FeatureSelectionEnv:
        env = original_build(task)
        env.reward_fn.cache_size = 0
        env.reward_fn.clear_cache()
        return env

    uncached_model._build_env = build_uncached  # type: ignore[method-assign]
    start = monotonic()
    uncached_model.fit(train)
    uncached_seconds = monotonic() - start

    return CacheStudyResult(
        hit_rate=float(np.mean(hit_rates)) if hit_rates else 0.0,
        seconds_with_cache=cached_seconds,
        seconds_without_cache=uncached_seconds,
    )


@dataclass
class RepresentationStudyResult:
    """Zero-shot quality under two task-representation choices."""

    pearson_f1: float
    mutual_information_f1: float


def task_representation_study(
    dataset: str = "water-quality", scale: str = "smoke", seed: int = 0
) -> RepresentationStudyResult:
    """Compare Pearson vs MI task representations for zero-shot selection.

    The PA-FEAT state embeds the Pearson vector; here a trained model is
    queried with both representations for each unseen task and the SVM
    quality of the resulting subsets is compared.  Both arms run the
    episode ``select`` runs (the model's agent, env config and feature
    redundancy matrix), so the Pearson arm is what PA-FEAT serves.
    Because the Q-network was *trained* on Pearson representations, MI
    representations probe how sensitive transfer is to the
    representation's scale and shape.
    """
    suite = load_suite(dataset, scale)
    train, test = suite.split_rows(0.7, np.random.default_rng(seed))
    model = PAFeat(make_config(scale, seed=seed)).fit(train)
    agent = model.inference_agent()
    test_by_index = {task.label_index: task for task in test.unseen_tasks}

    pearson_scores, mi_scores = [], []
    for task in train.unseen_tasks:
        pearson = pearson_representation(task.features, task.labels)
        mi = mutual_information_scores(task.features, task.labels)
        mi = mi / (mi.max() + 1e-12)  # rescale into the Pearson range
        representations = [pearson, mi]
        subsets = batched_greedy_subsets(
            agent, representations, model.config.env,
            feature_corr=model._feature_corr,
        )
        pearson_subset, mi_subset = served_subsets(subsets, representations)
        test_task = test_by_index[task.label_index]
        pearson_scores.append(
            evaluate_selection(pearson_subset, task, test_task, seed)["f1"]
        )
        mi_scores.append(evaluate_selection(mi_subset, task, test_task, seed)["f1"])
    return RepresentationStudyResult(
        pearson_f1=float(np.mean(pearson_scores)),
        mutual_information_f1=float(np.mean(mi_scores)),
    )


@dataclass
class PrioritizedReplayResult:
    """Uniform vs prioritized replay at otherwise identical settings."""

    uniform_f1: float
    prioritized_f1: float


def prioritized_replay_study(
    dataset: str = "water-quality", scale: str = "smoke", seed: int = 0
) -> PrioritizedReplayResult:
    """Compare uniform replay against the prioritized-replay extension."""
    suite = load_suite(dataset, scale)
    train, test = suite.split_rows(0.7, np.random.default_rng(seed))
    test_by_index = {task.label_index: task for task in test.unseen_tasks}

    def average_f1(prioritized: bool) -> float:
        config = make_config(scale, seed=seed)
        config = replace(
            config, agent=replace(config.agent, prioritized_replay=prioritized)
        )
        model = PAFeat(config).fit(train)
        scores = [
            evaluate_selection(
                model.select(task), task, test_by_index[task.label_index], seed
            )["f1"]
            for task in train.unseen_tasks
        ]
        return float(np.mean(scores))

    return PrioritizedReplayResult(
        uniform_f1=average_f1(False), prioritized_f1=average_f1(True)
    )


@dataclass
class ExplorationConstantResult:
    """Avg F1 per tested UCT exploration constant."""

    constants: tuple[float, ...]
    avg_f1: tuple[float, ...]


def exploration_constant_study(
    dataset: str = "water-quality",
    scale: str = "smoke",
    constants: tuple[float, ...] = (0.1, 1.0, 4.0),
    seed: int = 0,
) -> ExplorationConstantResult:
    """Sweep the E-Tree UCT constant ``c_e`` (Eqn. 9)."""
    suite = load_suite(dataset, scale)
    train, test = suite.split_rows(0.7, np.random.default_rng(seed))
    test_by_index = {task.label_index: task for task in test.unseen_tasks}
    scores = []
    for constant in constants:
        config = make_config(scale, seed=seed)
        config = replace(
            config, ite=ITEConfig(exploration_constant=constant)
        )
        model = PAFeat(config).fit(train)
        f1_values = [
            evaluate_selection(
                model.select(task), task, test_by_index[task.label_index], seed
            )["f1"]
            for task in train.unseen_tasks
        ]
        scores.append(float(np.mean(f1_values)))
    return ExplorationConstantResult(
        constants=tuple(constants), avg_f1=tuple(scores)
    )
