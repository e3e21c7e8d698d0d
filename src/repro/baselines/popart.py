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
from typing import Any, Sequence

import numpy as np

from repro.core.config import PAFeatConfig
from repro.core.pafeat import PAFeat
from repro.rl.agent import DuelingDQNAgent
from repro.rl.transition import Transition


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

    def update(self, batch: Sequence[Transition], task_id: int | None = None) -> float:
        """TD update in per-task normalised target space.

        The network ``f`` predicts normalised values; actual Q-values are
        ``sigma_k f + mu_k``.  Since the per-task transform is affine, the
        greedy action (argmax over actions for one state) is unchanged, so
        :meth:`act` needs no task information.
        """
        if task_id is None:
            return super().update(batch)
        if not batch:
            raise ValueError("update requires a non-empty batch")
        stats = self._task_stats(task_id)

        states = np.stack([t.state for t in batch])
        next_states = np.stack([t.next_state for t in batch])
        actions = np.array([t.action for t in batch], dtype=np.int64)
        rewards = np.array([t.reward for t in batch], dtype=np.float64)
        dones = np.array([t.done for t in batch], dtype=bool)

        # Unnormalised bootstrap target via the target network.
        next_f = self.target.infer(next_states)
        next_q = stats.std * next_f + stats.mean
        unnormalised_targets = rewards + np.where(
            dones, 0.0, self.gamma * next_q.max(axis=1)
        )
        returns_to_go = np.array(
            [t.return_to_go if t.return_to_go is not None else -np.inf for t in batch]
        )
        unnormalised_targets = np.maximum(unnormalised_targets, returns_to_go)
        stats.update(unnormalised_targets)
        normalised_targets = (unnormalised_targets - stats.mean) / stats.std

        f_all = self.online.forward(states)
        targets = f_all.copy()
        targets[np.arange(len(batch)), actions] = normalised_targets

        loss_value = self._loss.forward(f_all, targets)
        self._optimizer.zero_grad()
        self.online.backward(self._loss.backward())
        if self.grad_clip > 0:
            self._optimizer.clip_grad_norm(self.grad_clip)
        self._optimizer.step()

        self.update_count += 1
        if self.update_count % self.target_sync_every == 0:
            self.sync_target()
        return loss_value


class PopArtSelector(PAFeat):
    """FEAT + PopArt normalisation, without ITS/ITE (the paper's setup)."""

    name = "popart"

    def __init__(self, config: PAFeatConfig | None = None) -> None:
        base = config or PAFeatConfig()
        # PopArt replaces ITS (its comparison target); ITE is also off so the
        # difference measured is purely scheduling/normalisation strategy.
        super().__init__(replace(base, use_its=False, use_ite=False))

    def _build_agent(self, n_features: int) -> PopArtAgent:
        from repro.core.env import FeatureSelectionEnv
        from repro.core.state import state_dim
        from repro.rl.schedules import LinearDecay

        config = self.config.agent
        return PopArtAgent(
            state_dim=state_dim(n_features),
            n_actions=FeatureSelectionEnv.N_ACTIONS,
            hidden=config.hidden,
            gamma=config.gamma,
            lr=config.lr,
            epsilon_schedule=LinearDecay(
                config.epsilon_start, config.epsilon_end, config.epsilon_decay_steps
            ),
            target_sync_every=config.target_sync_every,
            rng=np.random.default_rng(self._seed_sequence.spawn(1)[0]),
            grad_clip=config.grad_clip,
        )
