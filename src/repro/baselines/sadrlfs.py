"""SADRLFS baseline (Zhao et al., ICDM 2020): single-agent DRL per task.

A single-agent restructured-choice DRL feature selector that trains *from
scratch* for each arriving task: pretrain the reward classifier, run a
fresh Dueling-DQN through the sequential scanning MDP for ``n_iterations``,
then emit the greedy subset.  No knowledge is carried between tasks, which
is why the paper measures its per-task latency at 3-4 orders of magnitude
above PA-FEAT's (Fig. 7) despite slightly better subset quality.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import FeatureSelector
from repro.core.batch import served_subsets
from repro.core.config import PAFeatConfig
from repro.core.env import FeatureSelectionEnv
from repro.core.feat import FEATTrainer
from repro.core.pafeat import build_agent, build_reward
from repro.data.stats import feature_redundancy_matrix, pearson_representation
from repro.data.tasks import Task
from repro.rl.seeding import task_seed_sequence


class SADRLFSSelector(FeatureSelector):
    """Train a fresh single-task DQN at selection time."""

    name = "sadrlfs"

    def __init__(
        self,
        max_feature_ratio: float = 0.6,
        config: PAFeatConfig | None = None,
        n_iterations: int = 100,
        seed: int = 0,
    ) -> None:
        super().__init__(max_feature_ratio)
        base = config or PAFeatConfig()
        from dataclasses import replace

        self.config = replace(
            base,
            use_its=False,
            use_ite=False,
            n_iterations=n_iterations,
            env=replace(base.env, max_feature_ratio=max_feature_ratio),
        )
        self.seed = seed
        self.last_trainer: FEATTrainer | None = None

    def select(self, task: Task) -> tuple[int, ...]:
        seed_sequence = task_seed_sequence(self.seed, task.label_index)
        child_seeds = seed_sequence.spawn(4)

        seed = int(child_seeds[0].generate_state(1)[0])
        _, reward_fn = build_reward(
            task, self.config.classifier, self.config.env.reward_metric, seed, seed
        )
        representation = pearson_representation(task.features, task.labels)
        env = FeatureSelectionEnv(
            task.label_index, representation, reward_fn, self.config.env,
            feature_corr=feature_redundancy_matrix(task.features),
        )
        agent = build_agent(
            self.config.agent, task.n_features, np.random.default_rng(child_seeds[1])
        )
        trainer = FEATTrainer(
            {task.label_index: env},
            agent,
            self.config,
            np.random.default_rng(child_seeds[2]),
        )
        trainer.train(self.config.n_iterations)
        self.last_trainer = trainer
        subset = trainer.greedy_subsets()[task.label_index]
        return served_subsets([subset], [representation])[0]
