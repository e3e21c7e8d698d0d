"""Integration tests: whole-pipeline behaviour across modules."""

import numpy as np
import pytest

from repro.core.pafeat import PAFeat
from repro.data.synthetic import SyntheticSpec, generate_suite
from repro.eval.svm import evaluate_subset_with_svm
from tests.conftest import fast_config


@pytest.fixture(scope="module")
def easy_split():
    """A suite with very strong, low-noise signal: learnable in seconds."""
    spec = SyntheticSpec(
        name="easy",
        n_instances=300,
        n_features=10,
        n_seen=3,
        n_unseen=2,
        informative_fraction=0.4,
        redundant_fraction=0.0,
        task_informative=3,
        n_concepts=1,
        noise_min=0.01,
        noise_max=0.05,
        interaction_pairs=0,
        seed=42,
    )
    suite = generate_suite(spec)
    return suite.split_rows(0.7, np.random.default_rng(0))


@pytest.fixture(scope="module")
def easy_model(easy_split):
    train, _ = easy_split
    config = fast_config(n_iterations=150, episodes_per_iteration=4)
    return PAFeat(config).fit(train)


class TestLearningSignal:
    def test_selected_subsets_hit_ground_truth(self, easy_model, easy_split):
        """On easy data, the transferred policy recovers real signal."""
        train, _ = easy_split
        recalls = []
        for task in train.unseen_tasks:
            subset = easy_model.select(task)
            ground_truth = set(task.ground_truth_features)
            recalls.append(len(ground_truth & set(subset)) / len(ground_truth))
        assert np.mean(recalls) >= 0.4

    def test_selection_beats_random_subsets(self, easy_model, easy_split):
        train, test = easy_split
        rng = np.random.default_rng(0)
        test_by_index = {t.label_index: t for t in test.unseen_tasks}
        model_scores, random_scores = [], []
        for task in train.unseen_tasks:
            subset = easy_model.select(task)
            test_task = test_by_index[task.label_index]
            model_scores.append(
                evaluate_subset_with_svm(
                    subset, task.features, task.labels,
                    test_task.features, test_task.labels,
                )["auc"]
            )
            for _ in range(3):
                random_subset = tuple(
                    rng.choice(10, size=len(subset), replace=False)
                )
                random_scores.append(
                    evaluate_subset_with_svm(
                        random_subset, task.features, task.labels,
                        test_task.features, test_task.labels,
                    )["auc"]
                )
        assert np.mean(model_scores) > np.mean(random_scores)

    def test_training_rewards_improve(self, easy_model):
        history = easy_model.trainer.history
        early = np.mean(
            [r for s in history[:10] for r in s.rewards_per_task.values()]
        )
        late = np.mean(
            [r for s in history[-10:] for r in s.rewards_per_task.values()]
        )
        assert late >= early - 0.05  # monotone-ish; never collapses


class TestSchedulerIntegration:
    def test_its_probabilities_valid_during_training(self, easy_model):
        scheduler = easy_model.scheduler
        assert scheduler is not None
        probabilities = scheduler.probabilities(easy_model.trainer.registry)
        assert probabilities.shape == (3,)
        assert probabilities.sum() == pytest.approx(1.0)
        assert np.all(probabilities > 0)

    def test_progress_snapshots_recorded(self, easy_model):
        assert easy_model.scheduler.last_progress
        for progress in easy_model.scheduler.last_progress:
            assert 0.0 <= progress.distance_ratio <= 1.0
            assert 0.0 <= progress.uncertainty <= 1.0


class TestExplorerIntegration:
    def test_etrees_grow_during_training(self, easy_model, easy_split):
        train, _ = easy_split
        explorer = easy_model.explorer
        assert explorer is not None
        total_nodes = sum(
            explorer.tree(task.label_index).n_nodes for task in train.seen_tasks
        )
        assert total_nodes > len(train.seen_tasks)  # beyond bare roots

    def test_customised_starts_used(self, easy_model):
        assert easy_model.explorer.customised_starts > 0


class TestFurtherTrainingIntegration:
    def test_further_training_never_hurts_much(self, easy_model, easy_split):
        train, _ = easy_split
        task = train.unseen_tasks[0]
        records = easy_model.further_train(task, n_iterations=20, checkpoint_every=10)
        assert records[-1].score >= records[0].score - 0.15


class TestExperimentArtifactsSmoke:
    """Each paper artefact's module runs end-to-end at smoke scale."""

    def test_table2_timing_shape(self):
        from repro.experiments import table2

        rows = table2.run(
            datasets=("water-quality",), scale="smoke", methods=("pa-feat", "go-explore")
        )
        assert len(rows) == 1
        for iteration_s, execution_s in rows[0].timings.values():
            assert iteration_s > 0
            assert execution_s < iteration_s * 100
        assert "Table II" in table2.render(rows)

    def test_fig7_single_task_comparison(self):
        from repro.experiments import fig7

        rows = fig7.run(
            datasets=("water-quality",), scale="smoke", methods=("pa-feat", "k-best", "sadrlfs")
        )
        outcomes = rows[0].outcomes
        # Single-task RL pays training inside select: far slower than PA-FEAT.
        assert outcomes["sadrlfs"][1] > outcomes["pa-feat"][1] * 10
        assert "Fig. 7" in fig7.render(rows)

    def test_table3_ablation_rows(self):
        from repro.experiments import table3

        rows = table3.run(
            datasets=("water-quality",),
            scale="smoke",
            variants=("pa-feat", "pa-feat-no-both"),
            n_runs=1,
        )
        assert set(rows[0].outcomes) == {"pa-feat", "pa-feat-no-both"}
        assert "Table III" in table3.render(rows)

    def test_fig8_its_benefit(self):
        from repro.experiments import fig8

        benefits = fig8.run(dataset="water-quality", scale="smoke", window=5)
        assert benefits
        # Sorted hardest first.
        difficulties = [b.difficulty for b in benefits]
        assert difficulties == sorted(difficulties)
        assert "Fig. 8" in fig8.render(benefits)

    def test_fig9_further_training_curve(self):
        from repro.experiments import fig9

        curve = fig9.run(
            dataset="water-quality",
            scale="smoke",
            further_iterations=10,
            checkpoint_every=5,
            max_tasks=2,
        )
        assert curve.iterations[0] == 0
        assert len(curve.avg_f1) == len(curve.iterations)
        assert "Fig. 9" in fig9.render(curve)

    def test_extras_cache_study(self):
        from repro.experiments.extras import reward_cache_study

        result = reward_cache_study(scale="smoke")
        assert 0.0 <= result.hit_rate <= 1.0
        assert result.seconds_with_cache > 0
