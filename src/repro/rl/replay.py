"""Replay buffers: per-task rings of step columns plus a per-task registry.

Algorithm 1 of the paper keeps one replay buffer per seen task
(``B^k``) and samples minibatches from each in turn.  ``ReplayRegistry``
is that per-task map.  Each :class:`ReplayBuffer` stores its steps as
column arrays, one row per visited state, in a ring, and remembers
summaries of recent episodes for the Inter-Task Scheduler's progress
probes.

Episodes are written whole and end on their terminal step, so a
non-terminal row's next state is the ring's next row.  A terminal row's
bootstrap is masked by ``done``, so the row after it only has to be
finite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from repro.analysis import tsan
from repro.io.checkpoint import nest, unnest
from repro.rl.trajectory import EpisodeSummary, Trajectory

#: The ring's columns, as checkpointed under ``ring/<name>``.
RING_COLUMNS = ("states", "actions", "rewards", "dones", "returns")


@dataclass(frozen=True)
class ReplayBatch:
    """A minibatch of stored steps as columns; row ``i`` is one step.

    ``returns`` holds each step's observed return-to-go ``R̂``.
    ``next_states`` is the ring row after each step: the step's successor
    state, or any finite row when ``dones`` marks the step terminal.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    returns: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)


class ReplayBuffer:
    """Bounded uniform-sampling step ring with an episode-summary tail."""

    def __init__(self, capacity: int, trajectory_window: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if trajectory_window < 1:
            raise ValueError(f"trajectory_window must be >= 1, got {trajectory_window}")
        self.capacity = capacity
        # Columns grow on demand up to ``capacity`` rows; unwritten rows
        # are zeros, so a terminal row's successor is always finite.
        self._columns = self._empty_columns()
        self._start = 0  # row of the oldest kept step
        self._size = 0
        self._recent_trajectories: deque[EpisodeSummary] = deque(
            maxlen=trajectory_window
        )

    def add_trajectory(self, trajectory: Trajectory) -> None:
        """Store a whole episode: its steps into the ring, its summary for ITS.

        Buffer mutation is single-writer by contract: the trainer's
        Buffer Filling Phase commits one episode at a time (ARCHITECTURE
        §10).  The sanitizer note lets the runtime lockset check catch
        any concurrent writer.
        """
        tsan.note(self, "_columns", write=True)
        if trajectory.length:
            dones = np.zeros(trajectory.length, dtype=bool)
            dones[-1] = True
            self._write(
                {
                    "states": trajectory.states,
                    "actions": trajectory.actions,
                    "rewards": trajectory.rewards,
                    "dones": dones,
                    "returns": trajectory.returns,
                }
            )
        self._recent_trajectories.append(
            EpisodeSummary(
                trajectory.task_id, trajectory.selected_features, trajectory.final_reward
            )
        )

    def _write(self, rows: dict[str, np.ndarray]) -> None:
        """Append rows to every column, evicting the oldest past capacity."""
        n = len(rows["actions"])
        keep = min(n, self.capacity)
        end = self._size + keep
        allocated = len(self._columns["actions"])
        if allocated < min(end, self.capacity):
            # Not yet full, so the kept rows start at row 0.
            grown_rows = min(self.capacity, max(end, 2 * allocated))
            for name, values in rows.items():
                grown = np.zeros((grown_rows,) + values.shape[1:], dtype=values.dtype)
                if self._size:
                    grown[: self._size] = self._columns[name][: self._size]
                self._columns[name] = grown
        targets = (self._start + self._size + np.arange(keep)) % self.capacity
        for name, values in rows.items():
            self._columns[name][targets] = values[n - keep :]
        evicted = max(0, end - self.capacity)
        self._start = (self._start + evicted) % self.capacity
        self._size = end - evicted

    def recent_trajectories(self, n: int | None = None) -> list[EpisodeSummary]:
        """Summaries of the most recent episodes (the ``load`` module of Eqn. 4a)."""
        trajectories = list(self._recent_trajectories)
        if n is not None:
            if n < 1:
                raise ValueError(f"n must be >= 1, got {n}")
            trajectories = trajectories[-n:]
        return trajectories

    def sample(self, batch_size: int, rng: np.random.Generator) -> ReplayBatch:
        """A minibatch of stored steps, drawn with replacement."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        return self.batch(self._draw(batch_size, rng))

    def _draw(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform indices in write order, as in standard DQN."""
        return rng.integers(0, self._size, size=batch_size)

    def batch(self, indices: np.ndarray) -> ReplayBatch:
        """The steps at ``indices`` in write order (0 is the oldest kept)."""
        columns = self._columns
        rows = (self._start + indices) % self.capacity
        following = (rows + 1) % len(columns["actions"])
        return ReplayBatch(
            states=columns["states"][rows],
            actions=columns["actions"][rows],
            rewards=columns["rewards"][rows],
            next_states=columns["states"][following],
            dones=columns["dones"][rows],
            returns=columns["returns"][rows],
        )

    def _empty_columns(self) -> dict[str, np.ndarray]:
        """Zero-row columns; the first write sizes them."""
        return {
            "states": np.zeros((0, 0)),
            "actions": np.zeros(0, dtype=np.int64),
            "rewards": np.zeros(0),
            "dones": np.zeros(0, dtype=bool),
            "returns": np.zeros(0),
        }

    def _write_order(self) -> np.ndarray:
        """Every kept row, oldest first."""
        return (self._start + np.arange(self._size)) % self.capacity

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Durable checkpointing
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Snapshot the ring and the episode-summary tail as ``(meta, arrays)``.

        Each column is saved in write order under ``ring/<name>`` (a
        bit-exact float64 round trip through ``.npz``); the tail, which
        feeds the ITS progress probes, is JSON metadata.
        """
        meta: dict = {
            "size": self._size,
            "trajectories": [asdict(t) for t in self._recent_trajectories],
        }
        order = self._write_order()
        return meta, {
            f"ring/{name}": self._columns[name][order] for name in RING_COLUMNS
        }

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Restore a snapshot captured by :meth:`capture_state`.

        Keys a snapshot may carry beyond the ring columns and the tail's
        task, subset and reward (older snapshots also stored successor
        states, tail step arrays and tail lengths) are not read.
        """
        self._columns = self._empty_columns()
        self._start = self._size = 0
        if len(arrays["ring/actions"]):
            self._write({name: arrays[f"ring/{name}"] for name in RING_COLUMNS})
        self._recent_trajectories.clear()
        self._recent_trajectories.extend(
            EpisodeSummary(
                task_id=int(record["task_id"]),
                selected_features=tuple(int(i) for i in record["selected_features"]),
                final_reward=float(record["final_reward"]),
            )
            for record in meta.get("trajectories", [])
        )


class ReplayRegistry:
    """Map task id → :class:`ReplayBuffer`, creating buffers lazily.

    ``buffer_factory`` customises the buffer type (e.g.
    :class:`~repro.rl.prioritized.PrioritizedReplayBuffer`); it receives
    ``(capacity, trajectory_window)`` and must return a ReplayBuffer.
    """

    def __init__(
        self,
        capacity: int,
        trajectory_window: int = 32,
        buffer_factory: Callable[[int, int], "ReplayBuffer"] | None = None,
    ) -> None:
        self._capacity = capacity
        self._trajectory_window = trajectory_window
        self._buffer_factory = buffer_factory or (
            lambda capacity, window: ReplayBuffer(capacity, trajectory_window=window)
        )
        self._buffers: dict[int, ReplayBuffer] = {}

    def buffer(self, task_id: int) -> ReplayBuffer:
        if task_id not in self._buffers:
            self._buffers[task_id] = self._buffer_factory(
                self._capacity, self._trajectory_window
            )
        return self._buffers[task_id]

    def task_ids(self) -> list[int]:
        return sorted(self._buffers)

    def non_empty_task_ids(self) -> list[int]:
        return [task_id for task_id in self.task_ids() if len(self._buffers[task_id])]

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._buffers

    def __len__(self) -> int:
        return len(self._buffers)

    # ------------------------------------------------------------------
    # Durable checkpointing
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Snapshot every per-task buffer (JSON keys are strings)."""
        meta: dict = {"buffers": {}}
        arrays: dict[str, np.ndarray] = {}
        for task_id in self.task_ids():
            buffer_meta, buffer_arrays = self._buffers[task_id].capture_state()
            meta["buffers"][str(task_id)] = buffer_meta
            arrays |= nest(f"{task_id}/", buffer_arrays)
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Rebuild buffers lazily via the factory, then restore each."""
        self._buffers.clear()
        for key, buffer_meta in meta.get("buffers", {}).items():
            task_id = int(key)
            self.buffer(task_id).restore_state(
                buffer_meta, unnest(f"{task_id}/", arrays)
            )
