"""Tests for the Inter-Task Scheduler and Intra-Task Explorer."""

import numpy as np
import pytest

from repro.core.config import ITEConfig, ITSConfig
from repro.core.ite import IntraTaskExplorer
from repro.core.its import (
    InterTaskScheduler,
    distance_ratio,
    performance_uncertainty,
)
from repro.core.state import EnvState
from repro.rl.replay import ReplayRegistry
from tests.conftest import make_episode


def trajectory_with(subset, final_reward, task_id=0):
    return make_episode(
        task_id=task_id, selected_features=subset, final_reward=final_reward
    )


class TestDistanceRatio:
    def test_matches_equation_six(self):
        trajectories = [trajectory_with((0,), 0.6), trajectory_with((1,), 0.8)]
        # (P_all - mean) / P_all = (1.0 - 0.7) / 1.0
        assert distance_ratio(trajectories, 1.0) == pytest.approx(0.3)

    def test_empty_history_means_maximal_distance(self):
        assert distance_ratio([], 0.9) == 1.0

    def test_clamped_at_zero_when_beating_baseline(self):
        trajectories = [trajectory_with((0,), 0.95)]
        assert distance_ratio(trajectories, 0.9) == 0.0

    def test_zero_baseline_returns_zero(self):
        assert distance_ratio([trajectory_with((0,), 0.5)], 0.0) == 0.0


class TestPerformanceUncertainty:
    def test_equation_seven_bounds(self):
        # Fully deterministic selection: every subset identical → xi = 1/2.
        trajectories = [trajectory_with((0, 1), 0.5) for _ in range(4)]
        assert performance_uncertainty(trajectories, 4) == pytest.approx(
            1.0 - (0.5 * 2 + 0.5 * 2) / 4
        )

    def test_maximally_unstable_is_one(self):
        # Each feature selected in exactly half of the subsets.
        trajectories = [trajectory_with((0,), 0.5), trajectory_with((1,), 0.5)]
        assert performance_uncertainty(trajectories, 2) == pytest.approx(1.0)

    def test_never_selected_is_stable(self):
        trajectories = [trajectory_with((), 0.5) for _ in range(3)]
        assert performance_uncertainty(trajectories, 5) == pytest.approx(0.5)

    def test_empty_history_maximal(self):
        assert performance_uncertainty([], 4) == 1.0

    def test_invalid_feature_count_raises(self):
        with pytest.raises(ValueError):
            performance_uncertainty([], 0)


class TestInterTaskScheduler:
    @pytest.fixture
    def registry(self):
        registry = ReplayRegistry(capacity=100, trajectory_window=8)
        # Task 0: already near its baseline and stable (easy, low need).
        for _ in range(6):
            registry.buffer(0).add_trajectory(trajectory_with((0, 1), 0.88, task_id=0))
        # Task 1: far from baseline and unstable (hard, high need).
        for i in range(6):
            subset = (i % 4,)
            registry.buffer(1).add_trajectory(trajectory_with(subset, 0.3, task_id=1))
        return registry

    def make_scheduler(self, min_trajectories=4):
        return InterTaskScheduler(
            [0, 1],
            {0: 0.9, 1: 0.9},
            n_features=4,
            config=ITSConfig(trajectory_window=8, min_trajectories=min_trajectories),
        )

    def test_progress_collection(self, registry):
        scheduler = self.make_scheduler()
        progress = scheduler.collect_progress(registry)
        assert progress[0].distance_ratio < progress[1].distance_ratio
        assert progress[0].uncertainty < progress[1].uncertainty

    def test_hard_task_gets_more_probability(self, registry):
        scheduler = self.make_scheduler()
        probabilities = scheduler.probabilities(registry)
        assert probabilities[1] > probabilities[0]
        assert probabilities.sum() == pytest.approx(1.0)

    def test_uniform_until_warm(self, registry):
        scheduler = self.make_scheduler(min_trajectories=100)
        np.testing.assert_allclose(scheduler.probabilities(registry), 0.5)

    def test_sampling_follows_distribution(self, registry, rng):
        scheduler = self.make_scheduler()
        samples = [scheduler.sample_task(registry, rng) for _ in range(300)]
        assert np.mean([s == 1 for s in samples]) > 0.5

    def test_missing_baseline_raises(self):
        with pytest.raises(ValueError, match="missing all-features baselines"):
            InterTaskScheduler([0, 1], {0: 0.5}, 4, ITSConfig())

    def test_requires_tasks(self):
        with pytest.raises(ValueError, match="at least one task"):
            InterTaskScheduler([], {}, 4, ITSConfig())


class TestITSVisitCounter:
    def _scheduler(self):
        return InterTaskScheduler(
            [1, 2, 3],
            {1: 0.5, 2: 0.5, 3: 0.5},
            n_features=12,
            config=ITSConfig(),
        )

    def test_record_visit_tallies_atomically(self):
        its = self._scheduler()
        for task_id in (1, 2, 2, 3, 2):
            its.record_visit(task_id)
        assert its.visits() == {1: 1, 2: 3, 3: 1}

    def test_visits_returns_a_copy(self):
        its = self._scheduler()
        its.record_visit(1)
        snapshot = its.visits()
        snapshot[1] = 99
        assert its.visits()[1] == 1

    def test_visits_survive_capture_restore(self):
        its = self._scheduler()
        for _ in range(6):
            its.record_visit(2)
        fresh = self._scheduler()
        fresh.restore_state(its.capture_state())
        assert fresh.visits() == {1: 0, 2: 6, 3: 0}

    def test_sample_task_records_visits(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        visits = fitted_tiny_model.scheduler.visits()
        episodes = sum(s.episodes for s in fitted_tiny_model.trainer.history)
        # One visit per planned episode, keyed by the seen tasks.
        assert sum(visits.values()) == episodes > 0
        assert set(visits) == {task.label_index for task in train.seen_tasks}


class TestIntraTaskExplorer:
    def make_explorer(self, invoke_probability=1.0, use_pe=True):
        config = ITEConfig(
            invoke_probability=invoke_probability, use_policy_exploitation=use_pe
        )
        return IntraTaskExplorer(4, config, np.random.default_rng(0))

    def test_default_start_for_empty_tree(self):
        explorer = self.make_explorer()
        assert explorer.initial_state(0) == EnvState((), 0)

    def test_customised_start_after_recording(self):
        explorer = self.make_explorer()
        trajectory = make_episode([1, 1, 0, 0], final_reward=0.9)
        explorer.record(0, trajectory, EnvState((), 0))
        assert explorer.tree(0).n_nodes > 1
        # With invoke_probability=1 the explorer must consult the tree.
        state = explorer.initial_state(0)
        assert explorer.customised_starts >= 1
        assert state.position <= 4

    def test_zero_invoke_probability_always_default(self):
        explorer = self.make_explorer(invoke_probability=0.0)
        trajectory = make_episode(final_reward=0.9, selected_features=(0,))
        explorer.record(0, trajectory, EnvState((), 0))
        for _ in range(10):
            assert explorer.initial_state(0) == EnvState((), 0)
        assert explorer.customised_starts == 0

    def test_trees_are_per_task(self):
        explorer = self.make_explorer()
        assert explorer.tree(0) is not explorer.tree(1)
        assert explorer.tree(0) is explorer.tree(0)

    def test_policy_exploitation_flag(self):
        assert self.make_explorer(use_pe=True).exploration_policy_is_learned
        assert not self.make_explorer(use_pe=False).exploration_policy_is_learned
