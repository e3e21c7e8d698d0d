"""Tests for the Dueling DQN agent."""

import numpy as np
import pytest

from repro.rl.agent import DuelingDQNAgent
from repro.rl.schedules import ConstantSchedule
from repro.rl.transition import Transition


def make_agent(epsilon=0.0, gamma=0.9, **kwargs):
    return DuelingDQNAgent(
        state_dim=4,
        n_actions=2,
        hidden=[16],
        gamma=gamma,
        lr=1e-2,
        epsilon_schedule=ConstantSchedule(epsilon),
        target_sync_every=5,
        rng=np.random.default_rng(0),
        **kwargs,
    )


def transition_between(state, action, reward, next_state, done, return_to_go=None):
    return Transition(
        state=np.asarray(state, dtype=float),
        action=action,
        reward=reward,
        next_state=np.asarray(next_state, dtype=float),
        done=done,
        return_to_go=return_to_go,
    )


class TestActionSelection:
    def test_greedy_returns_argmax(self):
        agent = make_agent(epsilon=1.0)  # epsilon ignored when greedy
        state = np.ones(4)
        q = agent.q_values(state)[0]
        assert agent.act(state, greedy=True) == int(np.argmax(q))

        # An exact tie (a zeroed dueling head makes Q = 0 for every action)
        # takes the lowest action, as act_batch does, and draws no RNG.
        for parameter in agent.online.layers[-1].parameters():
            parameter.value[...] = 0.0
        assert np.all(agent.q_values(state)[0] == 0.0)
        rng_state = agent._rng.bit_generator.state
        assert {agent.act(state, greedy=True) for _ in range(20)} == {0}
        assert agent._rng.bit_generator.state == rng_state

    def test_full_exploration_is_uniform(self):
        agent = make_agent(epsilon=1.0)
        actions = [agent.act(np.ones(4)) for _ in range(300)]
        rate = np.mean(actions)
        assert 0.35 < rate < 0.65

    def test_zero_epsilon_is_deterministic_when_q_separated(self):
        agent = make_agent(epsilon=0.0)
        # Train Q to prefer action 1 strongly in this state.
        batch = [
            transition_between(np.ones(4), 1, 10.0, np.zeros(4), True),
            transition_between(np.ones(4), 0, -10.0, np.zeros(4), True),
        ]
        for _ in range(100):
            agent.update(batch)
        actions = {agent.act(np.ones(4)) for _ in range(20)}
        assert actions == {1}


class TestUpdates:
    def test_update_reduces_td_error(self):
        agent = make_agent()
        batch = [transition_between(np.ones(4), 1, 1.0, np.zeros(4), True)]
        first_loss = agent.update(batch)
        for _ in range(50):
            last_loss = agent.update(batch)
        assert last_loss < first_loss

    def test_terminal_target_is_reward(self):
        agent = make_agent()
        batch = [transition_between(np.ones(4), 1, 0.7, np.zeros(4), True)]
        for _ in range(300):
            agent.update(batch)
        assert agent.q_values(np.ones(4))[0][1] == pytest.approx(0.7, abs=0.05)

    def test_bootstrap_propagates_future_value(self):
        agent = make_agent(gamma=1.0)
        terminal = transition_between([0, 1, 0, 0], 1, 1.0, [0, 0, 1, 0], True)
        first = transition_between([1, 0, 0, 0], 1, 0.0, [0, 1, 0, 0], False)
        for _ in range(400):
            agent.update([terminal, first])
        # Q(first, 1) should approach gamma * max_a Q(second) ≈ 1.0.
        assert agent.q_values(np.array([1.0, 0, 0, 0]))[0][1] > 0.5

    def test_return_to_go_tightens_target(self):
        agent = make_agent(gamma=1.0)
        batch = [
            transition_between(np.ones(4), 1, 0.0, np.zeros(4), False, return_to_go=2.0)
        ]
        for _ in range(300):
            agent.update(batch)
        # Bootstrap alone would give ~0 (untrained next-state Q ≈ 0); the
        # stored return lifts the target to 2.
        assert agent.q_values(np.ones(4))[0][1] > 1.0

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_agent().update([])

    def test_update_counts(self):
        agent = make_agent()
        batch = [transition_between(np.ones(4), 0, 0.0, np.zeros(4), True)]
        agent.update(batch)
        assert agent.update_count == 1


class TestTargetNetwork:
    def test_target_sync_after_interval(self):
        agent = make_agent()
        batch = [transition_between(np.ones(4), 1, 1.0, np.zeros(4), True)]
        for _ in range(agent.target_sync_every):
            agent.update(batch)
        online = agent.online.forward(np.ones((1, 4)))
        target = agent.target.forward(np.ones((1, 4)))
        np.testing.assert_allclose(online, target)

    def test_target_differs_between_syncs(self):
        agent = make_agent()
        batch = [transition_between(np.ones(4), 1, 1.0, np.zeros(4), True)]
        agent.update(batch)  # one update, no sync yet (sync at 5)
        online = agent.online.forward(np.ones((1, 4)))
        target = agent.target.forward(np.ones((1, 4)))
        assert not np.allclose(online, target)


class TestPolicySnapshots:
    def test_save_load_round_trip(self):
        agent = make_agent()
        batch = [transition_between(np.ones(4), 1, 1.0, np.zeros(4), True)]
        for _ in range(20):
            agent.update(batch)
        snapshot = agent.save_policy()
        q_before = agent.q_values(np.ones(4)).copy()
        for _ in range(20):
            agent.update([transition_between(np.ones(4), 1, -5.0, np.zeros(4), True)])
        assert not np.allclose(agent.q_values(np.ones(4)), q_before)
        agent.load_policy(snapshot)
        np.testing.assert_allclose(agent.q_values(np.ones(4)), q_before)

    def test_load_resyncs_target(self):
        agent = make_agent()
        snapshot = agent.save_policy()
        agent.update([transition_between(np.ones(4), 1, 1.0, np.zeros(4), True)])
        agent.load_policy(snapshot)
        np.testing.assert_allclose(
            agent.online.forward(np.ones((1, 4))),
            agent.target.forward(np.ones((1, 4))),
        )


class TestValidation:
    def test_invalid_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            make_agent(gamma=1.5)

    def test_double_dqn_flag_changes_bootstrap(self):
        plain = make_agent(double_dqn=False)
        double = make_agent(double_dqn=True)
        batch = [transition_between(np.ones(4), 1, 1.0, np.full(4, 0.5), False)]
        # Just exercising both paths; they should both train without error.
        assert np.isfinite(plain.update(batch))
        assert np.isfinite(double.update(batch))
