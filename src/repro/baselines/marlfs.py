"""MARLFS baseline (Liu et al., KDD 2019): one RL agent per feature.

Every feature owns an agent that decides *select* or *deselect* for its
feature each episode; the joint decision forms the subset and all agents
share the resulting classifier-score reward.  Each agent maintains its own
small Q-function (here: per-action value estimates updated toward the
shared reward with an advantage-style baseline), its own epsilon schedule
and its own experience — which is why the method's cost scales with the
number of agents and the paper measures it as the slowest baseline.

Training happens from scratch at selection time (single-task method).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import FeatureSelector
from repro.core.config import ClassifierConfig
from repro.core.pafeat import build_rewards
from repro.data.tasks import Task
from repro.rl.seeding import task_rng


class _FeatureAgent:
    """Per-feature two-action Q-learner with its own replay of returns."""

    def __init__(self, learning_rate: float) -> None:
        self.q = np.zeros(2)  # [deselect, select]
        self.learning_rate = learning_rate
        self.visits = np.zeros(2)

    def act(self, epsilon: float, rng: np.random.Generator) -> int:
        if rng.random() < epsilon:
            return int(rng.integers(2))
        if self.q[0] == self.q[1]:
            return int(rng.integers(2))
        return int(np.argmax(self.q))

    def update(self, action: int, reward: float) -> None:
        self.visits[action] += 1.0
        self.q[action] += self.learning_rate * (reward - self.q[action])

    @property
    def advantage(self) -> float:
        """Preference for selecting this feature."""
        return float(self.q[1] - self.q[0])


class MARLFSSelector(FeatureSelector):
    """Multi-agent RL feature selection, trained per arriving task."""

    name = "marlfs"

    def __init__(
        self,
        max_feature_ratio: float = 0.6,
        n_episodes: int = 300,
        learning_rate: float = 0.1,
        epsilon_start: float = 0.8,
        epsilon_end: float = 0.05,
        classifier_config: ClassifierConfig | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(max_feature_ratio)
        if n_episodes < 1:
            raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
        self.n_episodes = n_episodes
        self.learning_rate = learning_rate
        self.epsilon_start = epsilon_start
        self.epsilon_end = epsilon_end
        self.classifier_config = classifier_config or ClassifierConfig()
        self.seed = seed

    def select(self, task: Task) -> tuple[int, ...]:
        rng = task_rng(self.seed, task.label_index)
        classifier_seed = int(rng.integers(2**31))
        split_seed = int(rng.integers(2**31))
        [(_, reward_fn)] = build_rewards(
            [task], self.classifier_config, "auc", [classifier_seed], [split_seed]
        )

        agents = [_FeatureAgent(self.learning_rate) for _ in range(task.n_features)]
        best_subset: tuple[int, ...] = ()
        best_score = -np.inf
        for episode in range(self.n_episodes):
            fraction = episode / max(1, self.n_episodes - 1)
            epsilon = self.epsilon_start + fraction * (
                self.epsilon_end - self.epsilon_start
            )
            actions = [agent.act(epsilon, rng) for agent in agents]
            subset = tuple(i for i, action in enumerate(actions) if action == 1)
            score = reward_fn(subset) if subset else 0.0
            for agent, action in zip(agents, actions):
                agent.update(action, score)
            if subset and score > best_score:
                best_subset, best_score = subset, score

        subset = best_subset or tuple(
            i for i, agent in enumerate(agents) if agent.advantage > 0
        )
        if not subset:
            subset = (int(np.argmax([agent.advantage for agent in agents])),)
        budget = self.budget(task.n_features)
        if len(subset) > budget:
            # Keep the features the agents prefer most, within the mfr cap.
            advantages = np.array([agents[i].advantage for i in subset])
            keep = np.argsort(advantages)[::-1][:budget]
            subset = tuple(sorted(subset[i] for i in keep))
        return tuple(sorted(subset))
