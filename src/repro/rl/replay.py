"""Replay buffers: uniform per-task storage plus a per-task registry.

Algorithm 1 of the paper keeps one replay buffer per seen task
(``B^k``) and samples minibatches from each in turn.  ``ReplayRegistry``
is that per-task map; each :class:`ReplayBuffer` stores transitions in a
ring and remembers recent *trajectories* for the Inter-Task Scheduler's
progress probes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.analysis import tsan
from repro.rl.transition import Trajectory, Transition


class ReplayBuffer:
    """Bounded uniform-sampling transition store with a trajectory tail."""

    def __init__(self, capacity: int, trajectory_window: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if trajectory_window < 1:
            raise ValueError(f"trajectory_window must be >= 1, got {trajectory_window}")
        self.capacity = capacity
        self._storage: deque[Transition] = deque(maxlen=capacity)
        self._recent_trajectories: deque[Trajectory] = deque(maxlen=trajectory_window)

    def add(self, transition: Transition) -> None:
        self._storage.append(transition)

    def add_trajectory(self, trajectory: Trajectory) -> None:
        """Store a whole episode: transitions into the ring, tail for ITS.

        Buffer mutation is single-writer by contract: the trainer's
        Buffer Filling Phase commits one episode at a time (ARCHITECTURE
        §10).  The sanitizer note lets the runtime lockset check catch
        any concurrent writer.
        """
        tsan.note(self, "_storage", write=True)
        for transition in trajectory.transitions:
            self.add(transition)  # via add() so subclasses track metadata
        self._recent_trajectories.append(trajectory)

    def recent_trajectories(self, n: int | None = None) -> list[Trajectory]:
        """The most recent episodes (the ``load`` module of Eqn. 4a)."""
        trajectories = list(self._recent_trajectories)
        if n is not None:
            if n < 1:
                raise ValueError(f"n must be >= 1, got {n}")
            trajectories = trajectories[-n:]
        return trajectories

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        """Uniform sample with replacement, as in standard DQN."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not self._storage:
            raise ValueError("cannot sample from an empty buffer")
        indices = rng.integers(0, len(self._storage), size=batch_size)
        return [self._storage[i] for i in indices]

    def __len__(self) -> int:
        return len(self._storage)

    @property
    def is_empty(self) -> bool:
        return not self._storage

    # ------------------------------------------------------------------
    # Durable checkpointing
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Snapshot the ring and the trajectory tail as ``(meta, arrays)``.

        Transitions are stacked into flat arrays (bit-exact float64 round
        trip through ``.npz``); the recent-trajectory tail — which feeds
        the ITS progress probes — is stored as concatenated step arrays
        with per-trajectory offsets.
        """
        meta: dict = {"size": len(self._storage)}
        arrays = _pack_transitions(list(self._storage), prefix="ring/")
        trajectories = list(self._recent_trajectories)
        meta["trajectories"] = [
            {
                "task_id": t.task_id,
                "selected_features": list(t.selected_features),
                "final_reward": t.final_reward,
                "length": t.length,
            }
            for t in trajectories
        ]
        flat = [step for t in trajectories for step in t.transitions]
        arrays.update(_pack_transitions(flat, prefix="tail/"))
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Restore a snapshot captured by :meth:`capture_state`."""
        self._storage.clear()
        for transition in _unpack_transitions(arrays, prefix="ring/"):
            self._storage.append(transition)
        self._recent_trajectories.clear()
        steps = _unpack_transitions(arrays, prefix="tail/")
        cursor = 0
        for record in meta.get("trajectories", []):
            length = int(record["length"])
            trajectory = Trajectory(
                task_id=int(record["task_id"]),
                transitions=steps[cursor : cursor + length],
                selected_features=tuple(
                    int(i) for i in record["selected_features"]
                ),
                final_reward=float(record["final_reward"]),
            )
            cursor += length
            self._recent_trajectories.append(trajectory)


def _pack_transitions(
    transitions: list[Transition], prefix: str = ""
) -> dict[str, np.ndarray]:
    """Stack a transition list into flat arrays keyed ``{prefix}{field}``."""
    if transitions:
        states = np.stack([t.state for t in transitions])
        next_states = np.stack([t.next_state for t in transitions])
    else:
        states = np.zeros((0, 0))
        next_states = np.zeros((0, 0))
    returns = np.array(
        [np.nan if t.return_to_go is None else t.return_to_go for t in transitions],
        dtype=np.float64,
    )
    return {
        f"{prefix}states": states,
        f"{prefix}actions": np.array([t.action for t in transitions], dtype=np.int64),
        f"{prefix}rewards": np.array([t.reward for t in transitions], dtype=np.float64),
        f"{prefix}next_states": next_states,
        f"{prefix}dones": np.array([t.done for t in transitions], dtype=bool),
        f"{prefix}returns": returns,
    }


def _unpack_transitions(
    arrays: dict[str, np.ndarray], prefix: str = ""
) -> list[Transition]:
    """Inverse of :func:`_pack_transitions`."""
    actions = arrays[f"{prefix}actions"]
    states = arrays[f"{prefix}states"]
    next_states = arrays[f"{prefix}next_states"]
    rewards = arrays[f"{prefix}rewards"]
    dones = arrays[f"{prefix}dones"]
    returns = arrays[f"{prefix}returns"]
    return [
        Transition(
            state=states[i],
            action=int(actions[i]),
            reward=float(rewards[i]),
            next_state=next_states[i],
            done=bool(dones[i]),
            return_to_go=None if np.isnan(returns[i]) else float(returns[i]),
        )
        for i in range(len(actions))
    ]


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
            for name, value in buffer_arrays.items():
                arrays[f"{task_id}/{name}"] = value
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Rebuild buffers lazily via the factory, then restore each."""
        self._buffers.clear()
        for key, buffer_meta in meta.get("buffers", {}).items():
            task_id = int(key)
            prefix = f"{task_id}/"
            self.buffer(task_id).restore_state(
                buffer_meta,
                {
                    name[len(prefix):]: value
                    for name, value in arrays.items()
                    if name.startswith(prefix)
                },
            )
