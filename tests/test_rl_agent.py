"""Tests for the Dueling DQN agent."""

import numpy as np
import pytest

from repro.baselines.popart import PopArtAgent
from repro.core.state import state_dim
from repro.rl.agent import DuelingDQNAgent
from repro.rl.schedules import ConstantSchedule
from tests.conftest import episode_batch, make_episode


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


def terminal_step(state, action, reward):
    """A one-step episode: ``action`` from ``state`` ends it with ``reward``."""
    return make_episode([action], rewards=[reward], states=[state])


def step_before(state, action, reward, next_state):
    """The first step of a two-step episode that moves on to ``next_state``.

    The second step earns nothing, so the stored return-to-go is
    ``reward`` and does not lift the bootstrap target.
    """
    episode = make_episode(
        [action, 0], rewards=[reward, 0.0], states=[state, next_state], gamma=0.0
    )
    return episode_batch(episode, rows=[0])


class TestActionSelection:
    def test_greedy_returns_argmax(self):
        agent = make_agent(epsilon=1.0)  # act_batch never explores
        states = np.stack([np.ones(4), np.linspace(-1.0, 1.0, 4)])
        q = agent.q_values(states)
        assert agent.act_batch(states).tolist() == np.argmax(q, axis=1).tolist()

        # An exact tie (a zeroed dueling head makes Q = 0 for every action)
        # takes the lowest action, draws no RNG and leaves the epsilon
        # schedule's clock where it was.
        for parameter in agent.online.layers[-1].parameters():
            parameter.value[...] = 0.0
        assert np.all(agent.q_values(states) == 0.0)
        rng_state = agent._rng.bit_generator.state
        count = agent.action_count
        for _ in range(20):
            assert agent.act_batch(states).tolist() == [0, 0]
        assert agent._rng.bit_generator.state == rng_state
        assert agent.action_count == count

    @pytest.mark.parametrize("agent_class", [DuelingDQNAgent, PopArtAgent])
    @pytest.mark.parametrize("hidden", [(64,), (16, 16)])
    def test_act_batch_is_the_q_values_argmax(self, agent_class, hidden):
        """``act_batch`` is the greedy rule on ``states @ W + b``: the
        argmax of ``q_values``'s rows, bit for bit, at any row count."""
        rng = np.random.default_rng(len(hidden))
        dim = state_dim(72)
        agent = agent_class(dim, 2, hidden, 0.9, 1e-3, ConstantSchedule(0.0), 100, rng)
        weight, bias = agent.first_layer
        assert (weight.shape, bias.shape) == ((dim, hidden[0]), (hidden[0],))
        for rows in (1, 2, 64, 129):
            states = rng.normal(size=(rows, dim))
            expected = agent.q_values(states).argmax(axis=1)
            assert np.array_equal(agent.act_batch(states), expected)
            assert np.array_equal(
                agent.act_preactivations(states @ weight + bias), expected
            )
        assert agent.act_batch(states[0]).tolist() == [expected[0]]

    @pytest.mark.parametrize("hidden", [(64,), (16, 16)])
    def test_dead_relus_tie_to_action_zero(self, hidden):
        """Every hidden unit dead: both Q are the head's, an exact tie."""
        rng = np.random.default_rng(7)
        dim = state_dim(12)
        agent = DuelingDQNAgent(
            dim, 2, hidden, 0.9, 1e-3, ConstantSchedule(0.0), 100, rng
        )
        agent.first_layer[1][...] = -1e6
        agent.online.layers[-1].advantage_head.bias.value[...] = 0.25
        states = rng.uniform(size=(9, dim))
        q = agent.q_values(states)
        assert np.all(q[:, 0] == q[:, 1])
        assert q.argmax(axis=1).tolist() == [0] * 9
        assert agent.act_batch(states).tolist() == [0] * 9

    def test_full_exploration_is_uniform(self):
        agent = make_agent(epsilon=1.0)
        actions = [agent.act(np.ones(4)) for _ in range(300)]
        rate = np.mean(actions)
        assert 0.35 < rate < 0.65

    def test_zero_epsilon_is_deterministic_when_q_separated(self):
        agent = make_agent(epsilon=0.0)
        # Train Q to prefer action 1 strongly in this state.
        batch = episode_batch(
            terminal_step(np.ones(4), 1, 10.0), terminal_step(np.ones(4), 0, -10.0)
        )
        for _ in range(100):
            agent.update(batch)
        actions = {agent.act(np.ones(4)) for _ in range(20)}
        assert actions == {1}


class TestUpdates:
    def test_update_reduces_td_error(self):
        agent = make_agent()
        batch = episode_batch(terminal_step(np.ones(4), 1, 1.0))
        first_loss = agent.update(batch)
        for _ in range(50):
            last_loss = agent.update(batch)
        assert last_loss < first_loss

    def test_terminal_target_is_reward(self):
        agent = make_agent()
        batch = episode_batch(terminal_step(np.ones(4), 1, 0.7))
        for _ in range(300):
            agent.update(batch)
        assert agent.q_values(np.ones(4))[0][1] == pytest.approx(0.7, abs=0.05)

    def test_bootstrap_propagates_future_value(self):
        agent = make_agent(gamma=1.0)
        # One episode [1,0,0,0] -> [0,1,0,0] -> end, with the reward on the
        # last step; gamma=0 returns-to-go leave the first target to the
        # bootstrap.
        episode = make_episode(
            [1, 1], rewards=[0.0, 1.0], states=[[1, 0, 0, 0], [0, 1, 0, 0]], gamma=0.0
        )
        batch = episode_batch(episode, rows=[1, 0])
        for _ in range(400):
            agent.update(batch)
        # Q(first, 1) should approach gamma * max_a Q(second) ≈ 1.0.
        assert agent.q_values(np.array([1.0, 0, 0, 0]))[0][1] > 0.5

    def test_return_to_go_tightens_target(self):
        agent = make_agent(gamma=1.0)
        # The later step's reward of 2 reaches the first step's stored
        # return-to-go undiscounted.
        batch = episode_batch(
            make_episode(
                [1, 0], rewards=[0.0, 2.0], states=[np.ones(4), np.zeros(4)], gamma=1.0
            ),
            rows=[0],
        )
        for _ in range(300):
            agent.update(batch)
        # Bootstrap alone would give ~0 (untrained next-state Q ≈ 0); the
        # stored return lifts the target to 2.
        assert agent.q_values(np.ones(4))[0][1] > 1.0

    def test_bootstrap_is_target_q_at_online_argmax(self):
        """Double DQN: the online network picks the next action and the
        target network scores it, here where the target's own max differs."""
        agent = make_agent(gamma=0.9)
        next_state = np.full(4, 0.5)
        # Zeroed heads make Q(s', ·) = 2 + centred advantage bias:
        # online [2.5, 1.5] (argmax 0), target [1.5, 2.5] (max 2.5 at 1).
        for network, favoured in ((agent.online, 0), (agent.target, 1)):
            head = network.layers[-1]
            for parameter in head.parameters():
                parameter.value[...] = 0.0
            head.value_head.bias.value[...] = 2.0
            head.advantage_head.bias.value[favoured] = 1.0
        assert agent.online.infer(next_state).argmax() == 0
        assert agent.target.infer(next_state).argmax() == 1
        batch = step_before(np.ones(4), 1, 1.0, next_state)
        np.testing.assert_allclose(agent.compute_targets(batch), [1.0 + 0.9 * 1.5])

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_agent().update(episode_batch(make_episode([1], state_dim=4), rows=[]))

    def test_update_counts(self):
        agent = make_agent()
        batch = episode_batch(terminal_step(np.ones(4), 0, 0.0))
        agent.update(batch)
        assert agent.update_count == 1


class TestTargetNetwork:
    def test_target_sync_after_interval(self):
        agent = make_agent()
        batch = episode_batch(terminal_step(np.ones(4), 1, 1.0))
        for _ in range(agent.target_sync_every):
            agent.update(batch)
        online = agent.online.forward(np.ones((1, 4)))
        target = agent.target.forward(np.ones((1, 4)))
        np.testing.assert_allclose(online, target)

    def test_target_differs_between_syncs(self):
        agent = make_agent()
        batch = episode_batch(terminal_step(np.ones(4), 1, 1.0))
        agent.update(batch)  # one update, no sync yet (sync at 5)
        online = agent.online.forward(np.ones((1, 4)))
        target = agent.target.forward(np.ones((1, 4)))
        assert not np.allclose(online, target)


class TestPolicySnapshots:
    def test_save_load_round_trip(self):
        agent = make_agent()
        batch = episode_batch(terminal_step(np.ones(4), 1, 1.0))
        for _ in range(20):
            agent.update(batch)
        snapshot = agent.save_policy()
        q_before = agent.q_values(np.ones(4)).copy()
        for _ in range(20):
            agent.update(episode_batch(terminal_step(np.ones(4), 1, -5.0)))
        assert not np.allclose(agent.q_values(np.ones(4)), q_before)
        agent.load_policy(snapshot)
        np.testing.assert_allclose(agent.q_values(np.ones(4)), q_before)

    def test_load_resyncs_target(self):
        agent = make_agent()
        snapshot = agent.save_policy()
        agent.update(episode_batch(terminal_step(np.ones(4), 1, 1.0)))
        agent.load_policy(snapshot)
        np.testing.assert_allclose(
            agent.online.forward(np.ones((1, 4))),
            agent.target.forward(np.ones((1, 4))),
        )


class TestValidation:
    def test_invalid_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            make_agent(gamma=1.5)
