"""PopArt baseline (Hessel et al., AAAI 2019), implemented under FEAT.

PopArt balances multi-task learning by rescaling each task's value targets
with per-task running mean/std statistics, so high-reward tasks do not
dominate the shared network's gradients.  The original keeps per-task
output heads whose last layer is rescaled to preserve outputs when the
statistics move ("preserving outputs precisely"); with FEAT's single shared
head an exact preservation step is not possible per task, so this
implementation keeps the per-task *adaptive normalisation* (the "Art" part)
through a per-task affine output transform ``Q_k = sigma_k * f + mu_k``.
When statistics drift, outputs for that task shift — exactly the
reward-magnitude instability the PA-FEAT paper criticises in this baseline.

The extra per-task affine transform is the "additional DNN layer to realize
target rescaling" that makes PopArt's iterations slightly slower in the
paper's Table II.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.config import PAFeatConfig
from repro.core.pafeat import PAFeat
from repro.rl.agent import DuelingDQNAgent
from repro.rl.replay import ReplayBatch


class _RunningStats:
    """Exponential-moving per-task mean/std of TD targets."""

    def __init__(self, beta: float = 3e-2) -> None:
        self.beta = beta
        self.mean = 0.0
        self.mean_sq = 1.0

    @property
    def std(self) -> float:
        variance = max(self.mean_sq - self.mean**2, 1e-4)
        return float(np.sqrt(variance))

    def update(self, values: np.ndarray) -> None:
        batch_mean = float(np.mean(values))
        batch_mean_sq = float(np.mean(values**2))
        self.mean = (1.0 - self.beta) * self.mean + self.beta * batch_mean
        self.mean_sq = (1.0 - self.beta) * self.mean_sq + self.beta * batch_mean_sq


class PopArtAgent(DuelingDQNAgent):
    """Dueling DQN whose TD targets are normalised per task."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._stats: dict[int, _RunningStats] = {}

    def _task_stats(self, task_id: int) -> _RunningStats:
        if task_id not in self._stats:
            self._stats[task_id] = _RunningStats()
        return self._stats[task_id]

    def compute_targets(
        self, batch: ReplayBatch, task_id: int | None = None
    ) -> np.ndarray:
        """TD targets in per-task normalised target space.

        The network ``f`` predicts normalised values; actual Q-values are
        ``sigma_k f + mu_k``.  Since the per-task transform is affine, the
        greedy action (argmax over actions for one state) is unchanged, so
        :meth:`act` needs no task information.  Without a ``task_id`` the
        targets are plain Dueling-DQN ones.
        """
        if task_id is None:
            return super().compute_targets(batch)
        stats = self._task_stats(task_id)
        # Unnormalised bootstrap target via the target network.
        next_f = self.target.infer(batch.next_states)
        next_q = stats.std * next_f + stats.mean
        unnormalised_targets = batch.rewards + np.where(
            batch.dones, 0.0, self.gamma * next_q.max(axis=1)
        )
        unnormalised_targets = np.maximum(unnormalised_targets, batch.returns)
        stats.update(unnormalised_targets)
        return (unnormalised_targets - stats.mean) / stats.std


class PopArtSelector(PAFeat):
    """FEAT + PopArt normalisation, without ITS/ITE (the paper's setup)."""

    name = "popart"
    agent_class = PopArtAgent

    def __init__(self, config: PAFeatConfig | None = None) -> None:
        base = config or PAFeatConfig()
        # PopArt replaces ITS (its comparison target); ITE is also off so the
        # difference measured is purely scheduling/normalisation strategy.
        super().__init__(replace(base, use_its=False, use_ite=False))
