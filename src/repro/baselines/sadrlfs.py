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
from repro.core.state import state_dim
from repro.data.stats import feature_redundancy_matrix, pearson_representation
from repro.data.tasks import Task
from repro.nn.classifier import MaskedMLPClassifier
from repro.rl.reward import build_task_reward
from repro.rl.agent import DuelingDQNAgent
from repro.rl.schedules import LinearDecay
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

        classifier_config = self.config.classifier
        classifier = MaskedMLPClassifier(
            n_features=task.n_features,
            hidden=classifier_config.hidden,
            lr=classifier_config.lr,
            n_epochs=classifier_config.n_epochs,
            batch_size=classifier_config.batch_size,
            mask_augment=classifier_config.mask_augment,
            seed=int(child_seeds[0].generate_state(1)[0]),
        )
        reward_fn = build_task_reward(
            task.features, task.labels, classifier,
            metric=self.config.env.reward_metric,
            seed=int(child_seeds[0].generate_state(1)[0]),
        )
        representation = pearson_representation(task.features, task.labels)
        env = FeatureSelectionEnv(
            task.label_index, representation, reward_fn, self.config.env,
            feature_corr=feature_redundancy_matrix(task.features),
        )

        agent_config = self.config.agent
        agent = DuelingDQNAgent(
            state_dim=state_dim(task.n_features),
            n_actions=FeatureSelectionEnv.N_ACTIONS,
            hidden=agent_config.hidden,
            gamma=agent_config.gamma,
            lr=agent_config.lr,
            epsilon_schedule=LinearDecay(
                agent_config.epsilon_start,
                agent_config.epsilon_end,
                agent_config.epsilon_decay_steps,
            ),
            target_sync_every=agent_config.target_sync_every,
            rng=np.random.default_rng(child_seeds[1]),
            grad_clip=agent_config.grad_clip,
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
