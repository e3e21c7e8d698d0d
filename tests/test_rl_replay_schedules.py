"""Tests for episode records, replay buffers and epsilon schedules."""

import numpy as np
import pytest

from repro.rl.replay import ReplayBuffer, ReplayRegistry
from repro.rl.schedules import ConstantSchedule, LinearDecay
from tests.conftest import make_episode


class TestTrajectory:
    def test_states_coerced_to_float_arrays(self):
        episode = make_episode([1], states=[[0, 1, 2]])
        assert episode.states.dtype == np.float64
        assert episode.states.shape == (1, 3)

    def test_invalid_action_raises(self):
        with pytest.raises(ValueError, match="actions must be 0 .*or 1"):
            make_episode([1, 2])

    def test_returns_discounting(self):
        episode = make_episode([1, 1, 1], rewards=[1.0, 2.0, 4.0], gamma=0.5)
        assert episode.returns.tolist() == [
            1.0 + 0.5 * (2.0 + 0.5 * 4.0),
            2.0 + 0.5 * 4.0,
            4.0,
        ]

    def test_total_reward(self):
        episode = make_episode([1, 0], rewards=[1.5, 0.5])
        assert episode.total_reward == 2.0
        assert episode.length == 2

    def test_invalid_gamma_raises(self):
        with pytest.raises(ValueError, match="gamma"):
            make_episode(gamma=1.5)


class TestReplayBuffer:
    def test_capacity_enforced(self):
        buffer = ReplayBuffer(capacity=3)
        for i in range(10):
            buffer.add_trajectory(make_episode([1], rewards=[float(i)]))
        assert len(buffer) == 3

    def test_ring_keeps_most_recent(self):
        buffer = ReplayBuffer(capacity=2)
        for i in range(5):
            buffer.add_trajectory(make_episode([1], rewards=[float(i)]))
        rewards = set(buffer.sample(50, np.random.default_rng(0)).rewards.tolist())
        assert rewards <= {3.0, 4.0}

    def test_sample_from_empty_raises(self, rng):
        with pytest.raises(ValueError, match="empty"):
            ReplayBuffer(4).sample(1, rng)

    def test_trajectory_window(self):
        buffer = ReplayBuffer(100, trajectory_window=2)
        for i in range(5):
            buffer.add_trajectory(make_episode([1], final_reward=float(i)))
        recent = buffer.recent_trajectories()
        assert [t.final_reward for t in recent] == [3.0, 4.0]

    def test_recent_trajectories_subset(self):
        buffer = ReplayBuffer(100, trajectory_window=8)
        for i in range(5):
            buffer.add_trajectory(make_episode(final_reward=float(i)))
        assert [t.final_reward for t in buffer.recent_trajectories(2)] == [3.0, 4.0]

    def test_add_trajectory_stores_transitions(self):
        buffer = ReplayBuffer(10)
        buffer.add_trajectory(make_episode([1, 0]))
        assert len(buffer) == 2

    def test_next_state_is_the_next_row(self):
        # Two episodes, the second wrapping the ring: each non-terminal
        # step's next state is its successor, and only the last is done.
        buffer = ReplayBuffer(4)
        for offset in (0.0, 10.0):
            states = offset + np.arange(3.0)[:, None]
            buffer.add_trajectory(make_episode([1, 0, 1], states=states))
        batch = buffer.batch(np.arange(len(buffer)))
        assert batch.states[:, 0].tolist() == [2.0, 10.0, 11.0, 12.0]
        assert batch.dones.tolist() == [True, False, False, True]
        assert batch.next_states[1:3, 0].tolist() == [11.0, 12.0]
        assert np.isfinite(batch.next_states).all()

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)


class TestReplayRegistry:
    def test_lazily_creates_buffers(self):
        registry = ReplayRegistry(capacity=10)
        assert 3 not in registry
        registry.buffer(3)
        assert 3 in registry
        assert len(registry) == 1

    def test_same_buffer_returned(self):
        registry = ReplayRegistry(capacity=10)
        assert registry.buffer(1) is registry.buffer(1)

    def test_non_empty_filter(self):
        registry = ReplayRegistry(capacity=10)
        registry.buffer(1)
        registry.buffer(2).add_trajectory(make_episode([1]))
        assert registry.task_ids() == [1, 2]
        assert registry.non_empty_task_ids() == [2]


class TestSchedules:
    def test_constant(self):
        assert ConstantSchedule(0.3)(100) == 0.3

    def test_linear_endpoints(self):
        schedule = LinearDecay(1.0, 0.1, 100)
        assert schedule(0) == 1.0
        assert schedule(100) == pytest.approx(0.1)
        assert schedule(1_000_000) == pytest.approx(0.1)

    def test_linear_midpoint(self):
        assert LinearDecay(1.0, 0.0, 10)(5) == pytest.approx(0.5)

    def test_negative_step_raises(self):
        with pytest.raises(ValueError, match="step"):
            ConstantSchedule(0.1)(-1)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            LinearDecay(1.0, 0.0, 0)
