"""Tests for all baseline selectors."""

import numpy as np
import pytest

from repro.baselines import (
    AllFeaturesSelector,
    AntTDSelector,
    GRROSelector,
    GoExploreSelector,
    KBestSelector,
    MARLFSSelector,
    MDFSSelector,
    PopArtSelector,
    RFESelector,
    RewardRandomizationSelector,
    SADRLFSSelector,
    feature_budget,
)
from repro.baselines.popart import PopArtAgent, _RunningStats
from repro.core.config import ClassifierConfig
from repro.rl.schedules import ConstantSchedule
from tests.conftest import episode_batch, fast_config, make_episode


class TestFeatureBudget:
    def test_floor_of_ratio(self):
        assert feature_budget(10, 0.6) == 6
        assert feature_budget(10, 0.65) == 6

    def test_at_least_one(self):
        assert feature_budget(3, 0.1) == 1

    def test_full_ratio(self):
        assert feature_budget(7, 1.0) == 7

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            feature_budget(0, 0.5)
        with pytest.raises(ValueError):
            feature_budget(5, 0.0)


class TestFilterBaselines:
    def test_kbest_selects_budget_sized_subset(self, tiny_split):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        subset = KBestSelector(max_feature_ratio=0.5).select(task)
        assert len(subset) == feature_budget(task.n_features, 0.5)

    def test_kbest_prefers_informative_features(self, tiny_split):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        subset = KBestSelector(max_feature_ratio=0.3).select(task)
        ground_truth = set(task.ground_truth_features)
        assert len(set(subset) & ground_truth) >= 1

    def test_rfe_respects_budget(self, tiny_split):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        subset = RFESelector(max_feature_ratio=0.4).select(task)
        assert len(subset) == feature_budget(task.n_features, 0.4)

    def test_rfe_eliminates_iteratively(self, tiny_split):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        small = RFESelector(max_feature_ratio=0.2).select(task)
        large = RFESelector(max_feature_ratio=0.8).select(task)
        assert len(small) < len(large)

    def test_all_features_selector(self, tiny_split):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        assert AllFeaturesSelector().select(task) == tuple(range(task.n_features))


class TestMultiLabelBaselines:
    @pytest.mark.parametrize(
        "selector_cls", [GRROSelector, MDFSSelector]
    )
    def test_respects_budget(self, tiny_split, selector_cls):
        train, _ = tiny_split
        selector = selector_cls(max_feature_ratio=0.5).prepare(train)
        subset = selector.select(train.unseen_tasks[0])
        assert len(subset) == feature_budget(train.n_features, 0.5)

    def test_ant_td_respects_budget(self, tiny_split):
        train, _ = tiny_split
        selector = AntTDSelector(
            max_feature_ratio=0.5, n_ants=3, n_generations=2
        ).prepare(train)
        subset = selector.select(train.unseen_tasks[0])
        assert len(subset) == feature_budget(train.n_features, 0.5)

    def test_unified_subsets_ignore_task_identity(self, tiny_split):
        """The paper's criticism: multilabel methods give near-identical
        subsets across unseen tasks because seen labels dominate."""
        train, _ = tiny_split
        selector = GRROSelector(max_feature_ratio=0.5).prepare(train)
        subsets = [selector.select(task) for task in train.unseen_tasks]
        overlap = len(set(subsets[0]) & set(subsets[1]))
        assert overlap >= len(subsets[0]) - 2

    def test_works_without_prepare(self, tiny_split):
        """Selection with no seen suite degrades to the task's own labels."""
        train, _ = tiny_split
        subset = GRROSelector(max_feature_ratio=0.4).select(train.unseen_tasks[0])
        assert subset

    def test_mdfs_subsamples_rows(self, tiny_split):
        train, _ = tiny_split
        selector = MDFSSelector(max_feature_ratio=0.4, max_rows=50).prepare(train)
        assert selector.select(train.unseen_tasks[0])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AntTDSelector(n_ants=0)
        with pytest.raises(ValueError):
            MDFSSelector(ridge=0.0)
        with pytest.raises(ValueError):
            GRROSelector(redundancy_weight=-1.0)


class TestPopArt:
    def test_running_stats_track_mean_and_std(self):
        stats = _RunningStats(beta=0.5)
        for _ in range(50):
            stats.update(np.array([10.0, 10.0]))
        assert stats.mean == pytest.approx(10.0, rel=0.01)
        assert stats.std < 1.0

    def test_agent_keeps_per_task_statistics(self):
        agent = PopArtAgent(
            state_dim=4,
            n_actions=2,
            hidden=[8],
            gamma=0.9,
            lr=1e-2,
            epsilon_schedule=ConstantSchedule(0.0),
            target_sync_every=10,
            rng=np.random.default_rng(0),
        )
        batch_a = episode_batch(make_episode([1], rewards=[10.0], state_dim=4))
        batch_b = episode_batch(make_episode([1], rewards=[0.1], state_dim=4))
        agent.update(batch_a, task_id=0)
        agent.update(batch_b, task_id=1)
        assert agent._stats[0].mean > agent._stats[1].mean

    def test_update_without_task_falls_back_to_plain_dqn(self):
        agent = PopArtAgent(
            state_dim=4,
            n_actions=2,
            hidden=[8],
            gamma=0.9,
            lr=1e-2,
            epsilon_schedule=ConstantSchedule(0.0),
            target_sync_every=10,
            rng=np.random.default_rng(0),
        )
        batch = episode_batch(make_episode([1], rewards=[1.0], state_dim=4))
        assert np.isfinite(agent.update(batch))
        assert not agent._stats

    def test_selector_disables_its_ite(self):
        selector = PopArtSelector(fast_config())
        assert not selector.config.use_its
        assert not selector.config.use_ite

    def test_selector_end_to_end(self, tiny_split):
        train, _ = tiny_split
        model = PopArtSelector(fast_config(n_iterations=5)).fit(train)
        assert isinstance(model.trainer.agent, PopArtAgent)
        assert model.select(train.unseen_tasks[0])


class TestGoExplore:
    def test_archive_grows_and_restarts(self, tiny_split):
        train, _ = tiny_split
        model = GoExploreSelector(fast_config(n_iterations=8)).fit(train)
        assert model._archives
        archive = next(iter(model._archives.values()))
        assert archive._cells
        state = archive.sample_restart()
        assert state.position >= 0

    def test_uses_random_restart_policy(self, tiny_split):
        train, _ = tiny_split
        model = GoExploreSelector(fast_config(n_iterations=3)).fit(train)
        assert model.trainer.restart_policy == "random"

    def test_selects_for_unseen(self, tiny_split):
        train, _ = tiny_split
        model = GoExploreSelector(fast_config(n_iterations=5)).fit(train)
        assert model.select(train.unseen_tasks[0])


class TestRewardRandomization:
    def test_reward_transform_perturbs(self):
        from repro.baselines.reward_randomization import _RewardRandomizer

        randomizer = _RewardRandomizer(np.random.default_rng(0), scale_spread=0.5)
        values = {randomizer(0, 1.0) for _ in range(10)}
        assert len(values) > 1

    def test_scales_resample_periodically(self):
        from repro.baselines.reward_randomization import _RewardRandomizer

        randomizer = _RewardRandomizer(
            np.random.default_rng(0), scale_spread=0.5, additive_noise=0.0,
            resample_every=3,
        )
        scales = []
        for _ in range(9):
            randomizer(0, 1.0)
            scales.append(randomizer._scales[0])
        assert len(set(scales)) == 3

    def test_end_to_end(self, tiny_split):
        train, _ = tiny_split
        model = RewardRandomizationSelector(fast_config(n_iterations=5)).fit(train)
        assert model.select(train.unseen_tasks[0])


class TestSingleTaskRLBaselines:
    def test_sadrlfs_trains_from_scratch_per_task(self, tiny_split):
        train, _ = tiny_split
        selector = SADRLFSSelector(
            max_feature_ratio=0.5, config=fast_config(), n_iterations=5
        )
        subset = selector.select(train.unseen_tasks[0])
        assert subset
        assert len(subset) <= feature_budget(train.n_features, 0.5)
        assert selector.last_trainer is not None

    def test_sadrlfs_is_deterministic_per_seed(self, tiny_split):
        train, _ = tiny_split
        kwargs = dict(max_feature_ratio=0.5, config=fast_config(), n_iterations=4, seed=3)
        a = SADRLFSSelector(**kwargs).select(train.unseen_tasks[0])
        b = SADRLFSSelector(**kwargs).select(train.unseen_tasks[0])
        assert a == b

    def test_marlfs_budget_and_validity(self, tiny_split):
        train, _ = tiny_split
        selector = MARLFSSelector(
            max_feature_ratio=0.4,
            n_episodes=40,
            classifier_config=ClassifierConfig(n_epochs=3),
        )
        subset = selector.select(train.unseen_tasks[0])
        assert subset
        assert len(subset) <= feature_budget(train.n_features, 0.4)

    def test_marlfs_agents_learn_preferences(self, tiny_split):
        train, _ = tiny_split
        selector = MARLFSSelector(
            max_feature_ratio=0.6,
            n_episodes=60,
            classifier_config=ClassifierConfig(n_epochs=3),
        )
        subset = selector.select(train.unseen_tasks[0])
        # At minimum the subset is non-trivial and within range.
        assert all(0 <= f < train.n_features for f in subset)

    def test_marlfs_invalid_episodes(self):
        with pytest.raises(ValueError):
            MARLFSSelector(n_episodes=0)
