"""Tests for the FEAT trainer and the PAFeat facade."""

import numpy as np
import pytest

from repro.core.config import EnvConfig, PAFeatConfig
from repro.core.feat import FEATTrainer, UniformTaskSampler
from repro.core.pafeat import PAFeat
from repro.core.state import EnvState
from tests.conftest import fast_config


def _assert_same_weights(expected, actual):
    assert set(expected) == set(actual)
    for name in expected:
        np.testing.assert_array_equal(expected[name], actual[name])


class TestUniformTaskSampler:
    def test_covers_all_tasks(self, rng):
        sampler = UniformTaskSampler([3, 5, 9])
        samples = {sampler(None, rng) for _ in range(200)}
        assert samples == {3, 5, 9}

    def test_requires_task_ids(self):
        with pytest.raises(ValueError):
            UniformTaskSampler([])


class TestFEATTrainer:
    @pytest.fixture(scope="class")
    def trainer(self, fitted_tiny_model):
        return fitted_tiny_model.trainer

    def test_history_length(self, trainer, fitted_tiny_model):
        assert len(trainer.history) == fitted_tiny_model.config.n_iterations

    def test_buffers_filled_for_sampled_tasks(self, trainer):
        assert trainer.registry.non_empty_task_ids()

    def test_episode_has_returns_to_go(self, trainer):
        task_id = trainer.registry.non_empty_task_ids()[0]
        trajectory = trainer.run_episode(task_id)
        assert all(t.return_to_go is not None for t in trajectory.transitions)
        # First step's return-to-go equals the discounted sum of rewards.
        gamma = trainer.config.agent.gamma
        expected = 0.0
        for transition in reversed(trajectory.transitions):
            expected = transition.reward + gamma * expected
        assert trajectory.transitions[0].return_to_go == pytest.approx(expected)

    def test_trajectory_records_final_subset(self, trainer):
        task_id = trainer.registry.non_empty_task_ids()[0]
        trajectory = trainer.run_episode(task_id)
        env = trainer.envs[task_id]
        assert trajectory.selected_features == env.selected

    def test_greedy_episode_is_deterministic(self, trainer):
        task_id = trainer.registry.non_empty_task_ids()[0]
        a = trainer.run_episode(task_id, greedy=True).selected_features
        b = trainer.run_episode(task_id, greedy=True).selected_features
        assert a == b

    def test_random_policy_episodes_vary(self, trainer):
        task_id = trainer.registry.non_empty_task_ids()[0]
        subsets = {
            trainer.run_episode(task_id, random_policy=True).selected_features
            for _ in range(10)
        }
        assert len(subsets) > 1

    def test_run_episode_from_custom_start(self, trainer):
        task_id = trainer.registry.non_empty_task_ids()[0]
        start = EnvState(selected=(0,), position=2)
        trajectory = trainer.run_episode(task_id, start=start)
        assert 0 in trajectory.selected_features

    def test_infer_subset_respects_budget(self, trainer):
        task_id = trainer.registry.non_empty_task_ids()[0]
        env = trainer.envs[task_id]
        subset = trainer.infer_subset(env)
        assert len(subset) <= env.max_selectable

    def test_invalid_restart_policy_raises(self, trainer):
        with pytest.raises(ValueError, match="restart_policy"):
            FEATTrainer(
                trainer.envs,
                trainer.agent,
                trainer.config,
                np.random.default_rng(0),
                restart_policy="chaotic",
            )

    def test_requires_envs(self, trainer):
        with pytest.raises(ValueError, match="at least one environment"):
            FEATTrainer({}, trainer.agent, trainer.config, np.random.default_rng(0))


class TestPAFeatFit:
    def test_fit_builds_components(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        model = fitted_tiny_model
        assert model.trainer is not None
        assert model.scheduler is not None  # ITS on by default
        assert model.explorer is not None  # ITE on by default
        assert set(model.reward_fns) == {t.label_index for t in train.seen_tasks}

    def test_fit_without_seen_tasks_raises(self, tiny_suite):
        from repro.data.tasks import TaskSuite

        empty = TaskSuite("x", tiny_suite.table, [], [0])
        # TaskSuite itself allows it; PAFeat must reject.
        with pytest.raises(ValueError, match="no seen tasks"):
            PAFeat(fast_config()).fit(empty)

    def test_ablation_switches_disable_components(self, tiny_split):
        train, _ = tiny_split
        model = PAFeat(fast_config(use_its=False, use_ite=False, n_iterations=3)).fit(train)
        assert model.scheduler is None
        assert model.explorer is None

    def test_same_seed_reproduces_selection(self, tiny_split):
        train, _ = tiny_split
        a = PAFeat(fast_config(n_iterations=8)).fit(train)
        b = PAFeat(fast_config(n_iterations=8)).fit(train)
        task = train.unseen_tasks[0]
        assert a.select(task) == b.select(task)
        _assert_same_weights(
            a.trainer.agent.save_policy(), b.trainer.agent.save_policy()
        )


class TestRejectedFit:
    """A rejected ``fit`` call leaves an already-fitted model as it was."""

    @pytest.fixture(scope="class")
    def fitted(self, tiny_split):
        train, _ = tiny_split
        return PAFeat(fast_config(n_iterations=6)).fit(train)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rollout_workers": 0},
            {"rollout_workers": 2},
            {"resume": True},
            {"keep_last": 0, "checkpoint_dir": True},
            {"n_iterations": 0},
            {"n_iterations": -3},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_bad_arguments_leave_the_model_untouched(
        self, fitted, tiny_split, tmp_path, kwargs
    ):
        train, _ = tiny_split
        trainer = fitted.trainer
        weights = trainer.agent.save_policy()
        task = train.unseen_tasks[0]
        subset = fitted.select(task)
        if kwargs.get("checkpoint_dir"):  # True stands for a fresh directory
            kwargs = {**kwargs, "checkpoint_dir": tmp_path / "ckpts"}
        with pytest.raises(ValueError):
            fitted.fit(train, **kwargs)
        assert fitted.trainer is trainer
        _assert_same_weights(weights, trainer.agent.save_policy())
        assert fitted.select(task) == subset


class TestPAFeatSelect:
    def test_select_returns_valid_subset(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        for task in train.unseen_tasks:
            subset = fitted_tiny_model.select(task)
            assert subset
            assert all(0 <= f < train.n_features for f in subset)
            budget = int(0.6 * train.n_features)
            assert len(subset) <= max(1, budget)

    def test_select_before_fit_raises(self, tiny_split):
        train, _ = tiny_split
        with pytest.raises(RuntimeError, match="not fitted"):
            PAFeat(fast_config()).select(train.unseen_tasks[0])

    def test_select_all_unseen(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        subsets = fitted_tiny_model.select_all_unseen()
        assert set(subsets) == {t.name for t in train.unseen_tasks}

    def test_select_is_fast_relative_to_fit(self, fitted_tiny_model, tiny_split):
        """The 'fast' in fast feature selection: selection ≪ training."""
        import time

        train, _ = tiny_split
        task = train.unseen_tasks[0]
        start = time.perf_counter()
        fitted_tiny_model.select(task)
        assert time.perf_counter() - start < 0.5


class TestFurtherTrain:
    def test_further_train_returns_checkpoints(self, tiny_split):
        train, _ = tiny_split
        model = PAFeat(fast_config(n_iterations=5)).fit(train)
        records = model.further_train(
            train.unseen_tasks[0], n_iterations=6, checkpoint_every=3
        )
        assert [r.iteration for r in records] == [3, 6]
        assert all(0.0 <= r.score <= 1.0 for r in records)

    def test_further_train_builds_reward_for_unseen(self, tiny_split):
        train, _ = tiny_split
        model = PAFeat(fast_config(n_iterations=5)).fit(train)
        task = train.unseen_tasks[0]
        assert task.label_index not in model.reward_fns
        model.further_train(task, n_iterations=2, checkpoint_every=2)
        assert task.label_index in model.reward_fns

    def test_invalid_iterations_raise(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        with pytest.raises(ValueError):
            fitted_tiny_model.further_train(train.unseen_tasks[0], 0)


class TestConfigValidation:
    def test_env_config_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            EnvConfig(max_feature_ratio=0.0)

    def test_env_config_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            EnvConfig(reward_mode="bonus")

    def test_pafeat_config_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            PAFeatConfig(n_iterations=0)

    def test_pafeat_config_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            PAFeatConfig(train_fraction=1.0)

    def test_agent_config_rejects_bad_epsilon_order(self):
        from repro.core.config import AgentConfig

        with pytest.raises(ValueError):
            AgentConfig(epsilon_start=0.1, epsilon_end=0.5)

    def test_its_config_rejects_bad_temperature(self):
        from repro.core.config import ITSConfig

        with pytest.raises(ValueError):
            ITSConfig(temperature=0.0)

    def test_ite_config_rejects_bad_probability(self):
        from repro.core.config import ITEConfig

        with pytest.raises(ValueError):
            ITEConfig(invoke_probability=1.5)
