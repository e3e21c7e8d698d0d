"""Failure injection and degenerate-input behaviour across the stack."""

import numpy as np
import pytest

from repro.core.config import EnvConfig
from repro.core.env import FeatureSelectionEnv
from repro.core.pafeat import PAFeat
from repro.data.stats import mutual_information_scores, pearson_representation
from repro.data.table import StructuredTable
from repro.data.tasks import TaskSuite
from repro.eval.metrics import roc_auc_score
from repro.eval.svm import evaluate_subset_with_svm
from tests.conftest import fast_config, zero_reward


class TestNonFiniteInputs:
    def test_nan_features_rejected_at_table_boundary(self, rng):
        features = rng.standard_normal((10, 3))
        features[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            StructuredTable(features, np.zeros(10))

    def test_inf_features_rejected(self, rng):
        features = rng.standard_normal((10, 3))
        features[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            StructuredTable(features, np.zeros(10))


class TestDegenerateTasks:
    def make_suite(self, labels_matrix, rng, n_features=6):
        features = rng.standard_normal((len(labels_matrix), n_features))
        table = StructuredTable(features, np.asarray(labels_matrix))
        n_labels = table.n_labels
        seen = list(range(max(1, n_labels - 1)))
        unseen = [n_labels - 1] if n_labels > 1 else []
        return TaskSuite("degenerate", table, seen, unseen)

    def test_constant_label_task_trains_without_crash(self, rng):
        labels = np.column_stack([
            np.ones(80, dtype=int),               # constant seen task
            rng.integers(0, 2, 80),               # normal seen task
            rng.integers(0, 2, 80),               # unseen
        ])
        suite = self.make_suite(labels, rng)
        model = PAFeat(fast_config(n_iterations=3)).fit(suite)
        assert model.select(suite.unseen_tasks[0])

    def test_constant_features_alongside_signal(self, rng):
        features = np.hstack([
            np.ones((100, 2)),                    # constant columns
            rng.standard_normal((100, 4)),
        ])
        labels = np.column_stack([
            (features[:, 2] > 0).astype(int),
            (features[:, 3] > 0).astype(int),
        ])
        table = StructuredTable(features, labels)
        suite = TaskSuite("const", table, [0], [1])
        model = PAFeat(fast_config(n_iterations=5)).fit(suite)
        subset = model.select(suite.unseen_tasks[0])
        assert subset

    def test_extremely_unbalanced_labels(self, rng):
        labels = np.column_stack([
            (rng.random(200) < 0.03).astype(int),
            rng.integers(0, 2, 200),
        ])
        suite = self.make_suite(labels, rng)
        model = PAFeat(fast_config(n_iterations=3)).fit(suite)
        assert model.select(suite.unseen_tasks[0])


class TestStatisticsDegenerate:
    def test_pearson_handles_two_rows(self, rng):
        representation = pearson_representation(
            rng.standard_normal((2, 3)), np.array([0, 1])
        )
        assert representation.shape == (3,)
        assert np.all(np.isfinite(representation))

    def test_pearson_single_row_returns_zeros(self, rng):
        representation = pearson_representation(
            rng.standard_normal((1, 3)), np.array([1])
        )
        np.testing.assert_array_equal(representation, 0.0)

    def test_mutual_information_on_empty_rows(self):
        scores = mutual_information_scores(np.empty((0, 3)), np.empty(0))
        np.testing.assert_array_equal(scores, 0.0)

    def test_auc_all_equal_scores(self):
        labels = np.array([0, 1, 0, 1])
        assert roc_auc_score(labels, np.full(4, 0.5)) == pytest.approx(0.5)


class TestBudgetExtremes:
    def test_mfr_one_allows_every_feature(self, rng):
        env = FeatureSelectionEnv(
            0, np.full(5, 0.5), zero_reward, EnvConfig(max_feature_ratio=1.0)
        )
        env.reset()
        while not env.done:
            env.step(1)
        assert env.selected == (0, 1, 2, 3, 4)

    def test_tiny_mfr_keeps_at_least_one(self, rng):
        env = FeatureSelectionEnv(
            0, np.full(10, 0.5), zero_reward, EnvConfig(max_feature_ratio=0.01)
        )
        env.reset()
        _, _, done, _ = env.step(1)
        assert done  # budget of one feature consumed immediately
        assert env.selected == (0,)

    def test_single_feature_environment(self):
        env = FeatureSelectionEnv(0, np.array([0.9]), zero_reward, EnvConfig())
        env.reset()
        _, _, done, info = env.step(1)
        assert done
        assert info["selected"] == (0,)


class TestEvaluationDegenerate:
    def test_evaluate_empty_subset_defined(self, rng):
        x = rng.standard_normal((60, 4))
        labels = rng.integers(0, 2, 60)
        scores = evaluate_subset_with_svm((), x[:40], labels[:40], x[40:], labels[40:])
        assert 0.0 <= scores["f1"] <= 1.0
        assert scores["auc"] == pytest.approx(0.5)

    def test_evaluate_single_class_test_rows(self, rng):
        x = rng.standard_normal((60, 4))
        labels = np.concatenate([rng.integers(0, 2, 40), np.ones(20, dtype=int)])
        scores = evaluate_subset_with_svm(
            (0, 1), x[:40], labels[:40], x[40:], labels[40:]
        )
        assert scores["auc"] == 0.5  # chance by convention

    def test_suite_without_unseen_tasks(self, rng):
        features = rng.standard_normal((50, 4))
        labels = rng.integers(0, 2, size=(50, 2))
        table = StructuredTable(features, labels)
        suite = TaskSuite("all-seen", table, [0, 1], [])
        model = PAFeat(fast_config(n_iterations=3)).fit(suite)
        assert model.select_all_unseen() == {}
