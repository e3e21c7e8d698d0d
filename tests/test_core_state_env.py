"""Tests for the state encoding and the feature-selection environment."""

import numpy as np
import pytest

from repro.core.config import EnvConfig
from repro.core.env import FeatureSelectionEnv
from repro.core.state import EnvState, N_SCAN_SCALARS, encode_state, state_dim
from repro.nn.classifier import MaskedMLPClassifier
from repro.rl.reward import build_task_reward
from tests.conftest import zero_reward


class TestEnvState:
    def test_selected_is_sorted_and_deduplicated(self):
        state = EnvState(selected=(3, 1, 3), position=5)
        assert state.selected == (1, 3)
        assert state.n_selected == 2

    def test_selected_beyond_position_raises(self):
        with pytest.raises(ValueError, match="precede the scan position"):
            EnvState(selected=(5,), position=3)

    def test_negative_position_raises(self):
        with pytest.raises(ValueError, match="position"):
            EnvState(selected=(), position=-1)

    def test_hashable(self):
        assert EnvState((1,), 2) == EnvState((1,), 2)
        assert len({EnvState((1,), 2), EnvState((1,), 2)}) == 1


class TestEncodeState:
    def test_dimension(self):
        assert state_dim(10) == 2 * 10 + N_SCAN_SCALARS

    def test_blocks_populated(self):
        representation = np.linspace(0.1, 1.0, 10)
        state = EnvState(selected=(0, 2), position=4)
        encoded = encode_state(representation, state, 10, max_feature_ratio=0.5)
        np.testing.assert_array_equal(encoded[:10], representation)
        mask = encoded[10:20]
        assert mask[0] == 1.0 and mask[2] == 1.0 and mask.sum() == 2.0

    def test_scan_scalars(self):
        representation = np.linspace(0.1, 1.0, 10)
        state = EnvState(selected=(0, 2), position=4)
        encoded = encode_state(representation, state, 10, max_feature_ratio=0.5)
        scalars = encoded[20:]
        assert scalars[0] == pytest.approx(0.4)  # progress
        assert scalars[1] == pytest.approx(representation[4])  # cursor corr
        assert scalars[2] == pytest.approx(0.2)  # selected fraction
        assert scalars[3] == pytest.approx(representation[[0, 2]].mean())
        assert scalars[4] == pytest.approx(representation[4:].mean())
        assert scalars[5] == pytest.approx(representation[4:].max())
        assert scalars[6] == pytest.approx((5 - 2) / 5)  # budget remaining
        assert scalars[7] == pytest.approx(np.mean(representation <= representation[4]))

    def test_redundancy_scalar_uses_feature_corr(self):
        representation = np.full(4, 0.5)
        corr = np.eye(4)
        corr[1, 3] = corr[3, 1] = 0.9
        state = EnvState(selected=(1,), position=3)
        encoded = encode_state(representation, state, 4, feature_corr=corr)
        assert encoded[-1] == pytest.approx(0.9)

    def test_terminal_position_scalars(self):
        encoded = encode_state(np.ones(4), EnvState((0,), 4), 4)
        scalars = encoded[8:]
        assert scalars[0] == 1.0  # progress
        assert scalars[1] == 0.0  # no cursor feature

    def test_mismatched_representation_raises(self):
        with pytest.raises(ValueError, match="entries"):
            encode_state(np.ones(3), EnvState((), 0), 4)


@pytest.fixture(scope="module")
def env_fixture():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 6))
    labels = (x[:, 0] + x[:, 1] > 0).astype(int)
    classifier = MaskedMLPClassifier(6, n_epochs=8, seed=0)
    reward_fn = build_task_reward(x, labels, classifier, seed=0)
    representation = np.abs(
        [np.corrcoef(x[:, j], labels)[0, 1] for j in range(6)]
    )
    config = EnvConfig(max_feature_ratio=0.5, size_penalty=0.0)
    return FeatureSelectionEnv(0, representation, reward_fn, config)


class TestFeatureSelectionEnv:
    def test_reset_returns_initial_encoding(self, env_fixture):
        state = env_fixture.reset()
        assert state.shape == (env_fixture.state_dim,)
        assert env_fixture.position == 0
        assert env_fixture.selected == ()
        assert not env_fixture.done

    def test_step_advances_scan(self, env_fixture):
        env_fixture.reset()
        _, _, _, info = env_fixture.step(1)
        assert info["position"] == 1
        assert info["selected"] == (0,)

    def test_deselect_keeps_subset(self, env_fixture):
        env_fixture.reset()
        env_fixture.step(0)
        assert env_fixture.selected == ()

    def test_episode_terminates_at_scan_end(self, env_fixture):
        env_fixture.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, _ = env_fixture.step(0)
            steps += 1
        assert steps == 6

    def test_budget_truncation(self, env_fixture):
        """mfr = 0.5 of 6 features → at most 3 selections then done."""
        env_fixture.reset()
        done = False
        while not done:
            _, _, done, _ = env_fixture.step(1)
        assert len(env_fixture.selected) == 3

    def test_step_after_done_raises(self, env_fixture):
        env_fixture.reset()
        while not env_fixture.done:
            env_fixture.step(0)
        with pytest.raises(RuntimeError, match="finished episode"):
            env_fixture.step(0)

    def test_invalid_action_raises(self, env_fixture):
        env_fixture.reset()
        with pytest.raises(ValueError, match="action"):
            env_fixture.step(2)

    def test_reset_to_restores_logical_state(self, env_fixture):
        target = EnvState(selected=(1,), position=3)
        env_fixture.reset_to(target)
        assert env_fixture.logical_state() == target
        assert not env_fixture.done

    def test_reset_to_out_of_range_raises(self, env_fixture):
        with pytest.raises(ValueError):
            env_fixture.reset_to(EnvState(selected=(), position=99))

    def test_delta_rewards_telescope_to_final_score(self):
        """Sum of delta rewards equals the final (shaped) subset score."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((150, 5))
        labels = (x[:, 0] > 0).astype(int)
        classifier = MaskedMLPClassifier(5, n_epochs=5, seed=0)
        reward_fn = build_task_reward(x, labels, classifier, seed=0)
        config = EnvConfig(max_feature_ratio=1.0, reward_mode="delta", size_penalty=0.1)
        env = FeatureSelectionEnv(0, np.full(5, 0.3), reward_fn, config)
        env.reset()
        total = 0.0
        done = False
        actions = iter([1, 0, 1, 1, 0])
        while not done:
            _, reward, done, info = env.step(next(actions))
            total += reward
        final_shaped = info["score"] - 0.1 * len(env.selected) / 5
        assert total == pytest.approx(final_shaped, abs=1e-9)

    def test_performance_mode_rewards_are_scores(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((150, 5))
        labels = (x[:, 0] > 0).astype(int)
        classifier = MaskedMLPClassifier(5, n_epochs=5, seed=0)
        reward_fn = build_task_reward(x, labels, classifier, seed=0)
        config = EnvConfig(
            max_feature_ratio=1.0, reward_mode="performance", size_penalty=0.0
        )
        env = FeatureSelectionEnv(0, np.full(5, 0.3), reward_fn, config)
        env.reset()
        _, reward, _, info = env.step(1)
        assert reward == pytest.approx(info["score"])

    def test_zero_reward_env_charges_only_the_size_penalty(self):
        env = FeatureSelectionEnv(0, np.full(4, 0.5), zero_reward, EnvConfig())
        env.reset()
        _, reward, _, info = env.step(1)
        assert reward <= 0.0  # only the size penalty applies
        assert info["score"] == 0.0
