"""Episode records produced by environment rollouts."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np


@dataclass(eq=False)
class Trajectory:
    """A finished episode as step columns, plus the subset it maps to.

    Row ``i`` is the step taken from ``states[i]``: its action (0 deselect,
    1 select), its reward, and ``returns[i]``, the observed return from
    that step to the episode's end discounted by ``gamma`` (the ``R̂`` that
    Algorithm 1 lines 16-18 store in the buffer with each step).  The
    episode ends on its terminal step, so the state after row ``i`` is
    ``states[i + 1]``; the terminal state itself is not kept, because its
    bootstrap is masked.

    The paper's ITS reads "recent trajectories mapped to feature subsets"
    from each task's buffer; carrying the subset on the trajectory makes
    that O(1).  ``final_reward`` is the masked-classifier score of the
    final subset.
    """

    task_id: int
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    gamma: InitVar[float]
    selected_features: tuple[int, ...] = ()
    final_reward: float = 0.0
    returns: np.ndarray = field(init=False)

    def __post_init__(self, gamma: float) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        if not ((self.actions == 0) | (self.actions == 1)).all():
            raise ValueError(f"actions must be 0 (deselect) or 1 (select), got {self.actions}")
        self.returns = np.empty(len(self.rewards))
        running = 0.0
        for index in range(len(self.rewards) - 1, -1, -1):
            running = self.rewards[index] + gamma * running
            self.returns[index] = running

    @property
    def length(self) -> int:
        return len(self.actions)

    @property
    def total_reward(self) -> float:
        return float(self.rewards.sum())


@dataclass(frozen=True)
class EpisodeSummary:
    """What a replay buffer keeps of an episode for the ITS probes.

    ``selected_features`` and ``final_reward`` are all Eqns. 6-7 read; the
    episode's steps live in the buffer's ring.
    """

    task_id: int
    selected_features: tuple[int, ...]
    final_reward: float
