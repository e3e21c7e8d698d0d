"""Feature-selection MDP environment (paper Section II-B).

The agent scans features left to right; at each step the action selects
(1) or deselects (0) the feature under the cursor.  The episode ends when
the scan passes the last feature or when the selected fraction exceeds the
``max_feature_ratio`` budget (Algorithm 1 line 10).

Rewards come from the task's pretrained masked classifier.  Two modes:

* ``"performance"`` — the paper's literal Eqn. 2: each step receives the
  current subset's score.
* ``"delta"`` — each step receives the score *increment*; the undiscounted
  episode return then telescopes to the final subset's score, which keeps
  Q-values in [0, 1] and sharpens credit assignment.  This is the default.

``reset_to`` restores an arbitrary :class:`EnvState`, which is how the
Intra-Task Explorer restarts episodes from valuable visited states.
"""

from __future__ import annotations

import numpy as np
from repro.errors import LifecycleError

from repro.analysis.contracts import check_state_batch
from repro.core.config import EnvConfig
from repro.core.state import EnvState, ScanEncoder, state_dim
from repro.rl.reward import RewardFunction


class FeatureSelectionEnv:
    """Sequential feature-scanning environment for one task."""

    N_ACTIONS = 2  # 0 = deselect, 1 = select

    def __init__(
        self,
        task_id: int,
        task_representation: np.ndarray,
        reward_fn: RewardFunction,
        config: EnvConfig,
        feature_corr: np.ndarray | None = None,
    ) -> None:
        self.task_id = task_id
        self.task_representation = np.asarray(
            task_representation, dtype=np.float64
        ).reshape(-1)
        self.n_features = self.task_representation.shape[0]
        if self.n_features < 1:
            raise ValueError("environment needs at least one feature")
        # The task's per-position table is built once here; every step
        # after that updates the encoding in place (repro.core.state).
        self._scan = ScanEncoder(
            self.task_representation[None, :],
            config.max_feature_ratio,
            feature_corr,
        )
        self.feature_corr = (
            None if feature_corr is None else np.asarray(feature_corr, dtype=np.float64)
        )
        self.reward_fn = reward_fn
        self.config = config
        self.max_selectable = self._scan.budget
        self._selected: list[int] = []
        self._position = 0
        self._previous_score = 0.0
        self._done = True  # require reset() before step()

    @property
    def state_dim(self) -> int:
        return state_dim(self.n_features)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(self._selected)

    @property
    def position(self) -> int:
        return self._position

    def reset(self) -> np.ndarray:
        """Start a fresh episode from the default initial state."""
        return self.reset_to(EnvState(selected=(), position=0))

    def reset_to(self, state: EnvState) -> np.ndarray:
        """Restore a previously visited logical state (used by ITE)."""
        if state.position > self.n_features:
            raise ValueError(
                f"position {state.position} exceeds feature count {self.n_features}"
            )
        if state.selected and max(state.selected) >= self.n_features:
            raise ValueError("selected indices exceed the feature count")
        self._selected = list(state.selected)
        self._position = state.position
        self._scan.reset(0, state)
        raw = self.reward_fn(self._selected) if self._selected else 0.0
        self._previous_score = self._shaped(raw)
        self._done = self._position >= self.n_features or self._over_budget()
        return self.encode()

    def encode(self) -> np.ndarray:
        """Encode the current logical state as the Q-network input."""
        # The encoding must be a fresh array: it escapes into replay-buffer
        # transitions, so returning the encoder's row would alias every
        # stored state to the latest step.
        encoded = np.copy(self._scan.states[0])
        return check_state_batch("env.encode", encoded, self.state_dim)

    def step(self, action: int) -> tuple[np.ndarray, float, bool, dict]:
        """Apply select/deselect for the scanned feature and advance.

        Returns ``(next_state, reward, done, info)``; ``info`` carries the
        selected subset and the subset's raw classifier score.
        """
        if self._done:
            raise LifecycleError("step called on a finished episode; call reset()")
        if action not in (0, 1):
            raise ValueError(f"action must be 0 or 1, got {action}")
        if action == 1:
            self._selected.append(self._position)
            self._scan.select(0, self._position)
        self._position += 1
        self._scan.move(self._position, 0)

        score = (
            self.reward_fn(self._selected) if self._selected else 0.0
        )
        shaped = self._shaped(score)
        if self.config.reward_mode == "delta":
            reward = shaped - self._previous_score
        else:
            reward = shaped
        self._previous_score = shaped

        self._done = self._position >= self.n_features or self._over_budget()
        info = {
            "selected": tuple(self._selected),
            "score": score,
            "position": self._position,
        }
        return self.encode(), float(reward), self._done, info

    def _shaped(self, score: float) -> float:
        """Subset score with the explicit lean-subset shaping applied."""
        penalty = self.config.size_penalty * len(self._selected) / self.n_features
        return score - penalty

    def _over_budget(self) -> bool:
        return len(self._selected) >= self.max_selectable
