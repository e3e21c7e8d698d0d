"""Prioritized experience replay (Schaul et al., 2016) — optional extension.

The paper samples replay minibatches uniformly; prioritized replay sends
high-TD-error transitions back to the learner more often, which can sharpen
credit assignment on the small action gaps of the feature-selection MDP.
It is off by default (``AgentConfig.prioritized_replay=False``) and
benchmarked as one of the DESIGN.md §5 extra ablations.

Implementation: proportional prioritisation ``p_i = (|delta_i| + eps)^alpha``
kept as one more column of the ring, with NumPy categorical sampling —
exact and fast at the buffer sizes this reproduction uses (≤ tens of
thousands of transitions), so no sum-tree is needed.  Sampling is
proportional only: updates are not corrected by importance-sampling
weights.
"""

from __future__ import annotations

import numpy as np
from repro.errors import LifecycleError

from repro.analysis.numerics import normalized
from repro.rl.replay import ReplayBuffer


class PrioritizedReplayBuffer(ReplayBuffer):
    """Proportional prioritized replay on top of the ring buffer."""

    def __init__(
        self,
        capacity: int,
        trajectory_window: int = 32,
        alpha: float = 0.6,
        epsilon: float = 1e-3,
    ) -> None:
        super().__init__(capacity, trajectory_window=trajectory_window)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.alpha = alpha
        self.epsilon = epsilon
        self._max_priority = 1.0
        self.last_indices: np.ndarray | None = None

    def _empty_columns(self) -> dict[str, np.ndarray]:
        return super()._empty_columns() | {"priorities": np.zeros(0)}

    def _write(self, rows: dict[str, np.ndarray]) -> None:
        # New experiences enter with maximal priority so each is seen once.
        priorities = np.full(len(rows["actions"]), self._max_priority)
        super()._write(rows | {"priorities": priorities})

    def _draw(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        priorities = self._columns["priorities"][self._write_order()]
        scaled = (priorities + self.epsilon) ** self.alpha
        probabilities = normalized(scaled)
        self.last_indices = rng.choice(self._size, size=batch_size, p=probabilities)
        return self.last_indices

    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        meta, arrays = super().capture_state()
        meta["max_priority"] = self._max_priority
        arrays["priorities"] = self._columns["priorities"][self._write_order()]
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        super().restore_state(meta, arrays)
        # The base restore writes the rows in order from row 0.
        self._columns["priorities"][: self._size] = arrays["priorities"]
        self._max_priority = float(meta["max_priority"])
        # Sampling bookkeeping is transient: a checkpoint is taken between
        # iterations, never between sample() and update_priorities().
        self.last_indices = None

    def update_priorities(self, td_errors: np.ndarray) -> None:
        """Refresh the priorities of the most recently sampled batch."""
        if self.last_indices is None:
            raise LifecycleError("update_priorities called before sample")
        td_errors = np.abs(np.asarray(td_errors, dtype=np.float64)).reshape(-1)
        if td_errors.shape[0] != self.last_indices.shape[0]:
            raise ValueError(
                f"{td_errors.shape[0]} TD errors for "
                f"{self.last_indices.shape[0]} sampled transitions"
            )
        priorities = self._columns["priorities"]
        rows = (self._start + self.last_indices) % self.capacity
        for row, error in zip(rows, td_errors):
            priority = float(error)
            priorities[row] = priority
            self._max_priority = max(self._max_priority, priority)
