"""Go-Explore baseline (Ecoffet et al., Nature 2021), implemented under FEAT.

Go-Explore keeps an archive of visited states ("cells") and restarts
episodes from promising archive entries, exploring onward with a *simple*
(random) policy — exploration is fully decoupled from the learning policy.
The experience still trains the Q-network, but the choice of restart state
ignores the learned policy's exploitation progress, which is exactly the
weakness the PA-FEAT paper contrasts its Intra-Task Explorer against.

Archive entries are logical environment states; restart selection follows
the original's count-based heuristic — sample cells with weight
``1 / sqrt(visits + 1)`` biased by the best score reached from the cell.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.numerics import normalized
from repro.core.config import PAFeatConfig
from repro.core.pafeat import PAFeat
from repro.core.state import EnvState
from repro.rl.trajectory import Trajectory


class _Archive:
    """Per-task state archive with count-based restart sampling."""

    def __init__(self, rng: np.random.Generator, max_cells: int = 20_000) -> None:
        self._rng = rng
        self.max_cells = max_cells
        self._cells: dict[EnvState, dict[str, float]] = {}

    def record(self, trajectory: Trajectory, start: EnvState) -> None:
        score = trajectory.final_reward
        state = start
        self._touch(state, score)
        selected = list(start.selected)
        position = start.position
        for action in trajectory.actions:
            if action == 1:
                selected.append(position)
            position += 1
            state = EnvState(selected=tuple(selected), position=position)
            self._touch(state, score)

    def _touch(self, state: EnvState, score: float) -> None:
        if state not in self._cells:
            if len(self._cells) >= self.max_cells:
                return
            self._cells[state] = {"visits": 0.0, "best": score}
        cell = self._cells[state]
        cell["visits"] += 1.0
        cell["best"] = max(cell["best"], score)

    def sample_restart(self) -> EnvState:
        if not self._cells:
            return EnvState(selected=(), position=0)
        states = list(self._cells)
        weights = np.array(
            [
                (1.0 + self._cells[s]["best"]) / np.sqrt(self._cells[s]["visits"] + 1.0)
                for s in states
            ]
        )
        probabilities = normalized(weights)
        index = int(self._rng.choice(len(states), p=probabilities))
        return states[index]


class GoExploreSelector(PAFeat):
    """FEAT + Go-Explore archive restarts with a random exploration policy."""

    name = "go-explore"

    def __init__(self, config: PAFeatConfig | None = None) -> None:
        base = config or PAFeatConfig()
        super().__init__(replace(base, use_its=False, use_ite=False))
        self._archives: dict[int, _Archive] = {}
        self._archive_rng = np.random.default_rng(
            self._seed_sequence.spawn(1)[0]
        )

    def _archive(self, task_id: int) -> _Archive:
        if task_id not in self._archives:
            self._archives[task_id] = _Archive(self._archive_rng)
        return self._archives[task_id]

    def _extra_trainer_kwargs(self) -> dict:
        return {
            "initial_state_provider": lambda task_id: self._archive(
                task_id
            ).sample_restart(),
            "episode_end_hook": lambda task_id, trajectory, start: self._archive(
                task_id
            ).record(trajectory, start),
            # Exploration decoupled from the learned policy: random actions
            # whenever the restart state is non-default.
            "restart_policy": "random",
        }
