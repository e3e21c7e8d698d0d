"""Tests for the prioritized-replay extension."""

import numpy as np
import pytest

from repro.core.pafeat import PAFeat
from repro.rl.prioritized import PrioritizedReplayBuffer
from tests.conftest import episode_batch, fast_config, make_episode


def add_steps(buffer, n):
    """Store ``n`` one-step episodes whose rewards are 0, 1, ..., n - 1."""
    for i in range(n):
        buffer.add_trajectory(make_episode([0], rewards=[float(i)]))


class TestPrioritizedBuffer:
    def test_new_items_get_max_priority(self):
        buffer = PrioritizedReplayBuffer(10)
        add_steps(buffer, 1)
        assert buffer.capture_state()[1]["priorities"].tolist() == [1.0]

    def test_priorities_follow_ring_eviction(self):
        buffer = PrioritizedReplayBuffer(3)
        add_steps(buffer, 7)
        assert len(buffer.capture_state()[1]["priorities"]) == len(buffer) == 3

    def test_high_priority_sampled_more(self, rng):
        buffer = PrioritizedReplayBuffer(4, alpha=1.0)
        add_steps(buffer, 4)
        buffer.sample(4, rng)
        # Give the step with reward 3 a huge priority, the rest tiny.
        buffer.last_indices = np.arange(4)
        buffer.update_priorities(np.array([1e-6, 1e-6, 1e-6, 10.0]))
        counts = np.zeros(4)
        for _ in range(200):
            batch = buffer.sample(1, rng)
            counts[int(batch.rewards[0])] += 1
        assert counts[3] > 150

    def test_update_before_sample_raises(self):
        buffer = PrioritizedReplayBuffer(4)
        add_steps(buffer, 1)
        with pytest.raises(RuntimeError, match="before sample"):
            buffer.update_priorities(np.array([1.0]))

    def test_mismatched_error_count_raises(self, rng):
        buffer = PrioritizedReplayBuffer(4)
        add_steps(buffer, 1)
        buffer.sample(2, rng)
        with pytest.raises(ValueError, match="TD errors"):
            buffer.update_priorities(np.array([1.0]))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4, alpha=2.0)
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4, epsilon=0.0)


class TestAgentTDErrors:
    def test_td_errors_shape_and_sign(self):
        from repro.rl.agent import DuelingDQNAgent
        from repro.rl.schedules import ConstantSchedule

        agent = DuelingDQNAgent(
            state_dim=3, n_actions=2, hidden=[8], gamma=0.9, lr=1e-2,
            epsilon_schedule=ConstantSchedule(0.0), target_sync_every=5,
            rng=np.random.default_rng(0),
        )
        batch = episode_batch(
            make_episode([1], rewards=[1.0], states=np.ones((1, 3))),
            make_episode([0, 1], rewards=[-1.0, 0.0], states=[[0, 0, 0], [1, 1, 1]]),
            rows=[0, 1],
        )
        errors = agent.td_errors(batch)
        assert errors.shape == (2,)
        assert np.all(errors >= 0)

    def test_td_errors_shrink_with_training(self):
        from repro.rl.agent import DuelingDQNAgent
        from repro.rl.schedules import ConstantSchedule

        agent = DuelingDQNAgent(
            state_dim=3, n_actions=2, hidden=[8], gamma=0.9, lr=1e-2,
            epsilon_schedule=ConstantSchedule(0.0), target_sync_every=5,
            rng=np.random.default_rng(0),
        )
        batch = episode_batch(make_episode([1], rewards=[1.0], states=np.ones((1, 3))))
        before = agent.td_errors(batch)[0]
        for _ in range(100):
            agent.update(batch)
        assert agent.td_errors(batch)[0] < before


class TestEndToEnd:
    def test_pafeat_trains_with_prioritized_replay(self, tiny_split):
        from repro.core.config import AgentConfig

        train, _ = tiny_split
        config = fast_config(
            n_iterations=6, agent=AgentConfig(prioritized_replay=True)
        )
        model = PAFeat(config).fit(train)
        buffer = model.trainer.registry.buffer(
            model.trainer.registry.task_ids()[0]
        )
        assert isinstance(buffer, PrioritizedReplayBuffer)
        assert model.select(train.unseen_tasks[0])

    def test_further_train_refreshes_priorities(self, tiny_split):
        # further_train runs the trainer's update round, so the task's
        # stored steps stop sharing the initial priority once it runs.
        from repro.core.config import AgentConfig

        train, _ = tiny_split
        model = PAFeat(
            fast_config(n_iterations=6, agent=AgentConfig(prioritized_replay=True))
        ).fit(train)
        task = train.unseen_tasks[0]
        model.further_train(task, n_iterations=8)
        buffer = model.trainer.registry.buffer(task.label_index)
        _, arrays = buffer.capture_state()
        assert len(np.unique(arrays["priorities"])) > 1
