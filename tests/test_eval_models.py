"""Tests for the SVM, kernel classifier, masked classifier and reward."""

import numpy as np
import pytest

from repro.nn.classifier import MaskedMLPClassifier
from repro.eval.kernel import KernelRidgeClassifier
from repro.rl.reward import RewardFunction, build_task_reward
from repro.eval.svm import LinearSVM, evaluate_subset_with_svm


def linearly_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    labels = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
    return x, labels


class TestLinearSVM:
    def test_learns_separable_data(self):
        x, labels = linearly_separable()
        svm = LinearSVM(n_epochs=30).fit(x, labels)
        assert (svm.predict(x) == labels).mean() > 0.9

    def test_decision_function_sign_matches_predict(self):
        x, labels = linearly_separable()
        svm = LinearSVM().fit(x, labels)
        np.testing.assert_array_equal(
            svm.predict(x), (svm.decision_function(x) >= 0).astype(int)
        )

    def test_empty_feature_set_predicts_majority(self):
        svm = LinearSVM().fit(np.zeros((10, 0)), np.array([1] * 7 + [0] * 3))
        assert np.all(svm.predict(np.zeros((5, 0))) == 1)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearSVM().decision_function(np.zeros((1, 2)))

    def test_wrong_width_raises(self):
        x, labels = linearly_separable()
        svm = LinearSVM().fit(x, labels)
        with pytest.raises(ValueError, match="expected 3 features"):
            svm.predict(np.zeros((1, 5)))

    def test_deterministic_given_seed(self):
        x, labels = linearly_separable()
        a = LinearSVM(seed=3).fit(x, labels)
        b = LinearSVM(seed=3).fit(x, labels)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            LinearSVM(lambda_reg=0.0)
        with pytest.raises(ValueError):
            LinearSVM(n_epochs=0)


class TestKernelRidgeClassifier:
    def test_learns_nonlinear_boundary(self):
        """XOR-style interaction data: linear fails, RBF succeeds."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((400, 2))
        labels = ((x[:, 0] * x[:, 1]) > 0).astype(int)
        kernel_model = KernelRidgeClassifier().fit(x[:300], labels[:300])
        linear_model = LinearSVM(n_epochs=20).fit(x[:300], labels[:300])
        kernel_acc = (kernel_model.predict(x[300:]) == labels[300:]).mean()
        linear_acc = (linear_model.predict(x[300:]) == labels[300:]).mean()
        assert kernel_acc > 0.85
        assert kernel_acc > linear_acc + 0.2

    def test_subsamples_large_training_sets(self):
        x, labels = linearly_separable(n=500)
        model = KernelRidgeClassifier(max_rows=100).fit(x, labels)
        assert model._x_train.shape[0] == 100

    def test_empty_feature_set_predicts_majority(self):
        model = KernelRidgeClassifier().fit(np.zeros((10, 0)), np.array([0] * 8 + [1] * 2))
        assert np.all(model.predict(np.zeros((4, 0))) == 0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KernelRidgeClassifier().decision_function(np.zeros((1, 2)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KernelRidgeClassifier(ridge=0.0)
        with pytest.raises(ValueError):
            KernelRidgeClassifier(gamma=-1.0)


class TestEvaluateSubset:
    def test_good_subset_beats_noise_subset(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((400, 6))
        labels = (x[:, 0] + x[:, 1] > 0).astype(int)
        good = evaluate_subset_with_svm((0, 1), x[:300], labels[:300], x[300:], labels[300:])
        bad = evaluate_subset_with_svm((4, 5), x[:300], labels[:300], x[300:], labels[300:])
        assert good["f1"] > bad["f1"] + 0.15
        assert good["auc"] > bad["auc"] + 0.15

    def test_linear_kernel_option(self):
        x, labels = linearly_separable(400)
        result = evaluate_subset_with_svm(
            (0, 1), x[:300], labels[:300], x[300:], labels[300:], kernel="linear"
        )
        assert result["f1"] > 0.8

    def test_invalid_kernel_raises(self):
        with pytest.raises(ValueError, match="kernel"):
            evaluate_subset_with_svm((0,), np.zeros((4, 1)), np.zeros(4), np.zeros((4, 1)), np.zeros(4), kernel="poly")


class TestMaskedClassifier:
    def test_fits_and_scores(self):
        x, labels = linearly_separable(300)
        classifier = MaskedMLPClassifier(3, n_epochs=10).fit(x, labels)
        assert classifier.score(x, labels, metric="auc") > 0.8

    def test_masked_subset_scores_lower_without_signal_features(self):
        x, labels = linearly_separable(400)
        classifier = MaskedMLPClassifier(3, n_epochs=15, seed=1).fit(x, labels)
        with_signal = classifier.score(x, labels, subset=(0, 1))
        without_signal = classifier.score(x, labels, subset=(2,))
        assert with_signal > without_signal + 0.1

    def test_predict_proba_in_unit_interval(self):
        x, labels = linearly_separable(100)
        classifier = MaskedMLPClassifier(3, n_epochs=3).fit(x, labels)
        probs = classifier.predict_proba(x)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_score_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MaskedMLPClassifier(3).predict_proba(np.zeros((1, 3)))

    def test_bad_subset_indices_raise(self):
        x, labels = linearly_separable(50)
        classifier = MaskedMLPClassifier(3, n_epochs=2).fit(x, labels)
        with pytest.raises(IndexError):
            classifier.predict_proba(x, subset=(7,))

    def test_unknown_metric_raises(self):
        x, labels = linearly_separable(50)
        classifier = MaskedMLPClassifier(3, n_epochs=2).fit(x, labels)
        with pytest.raises(ValueError, match="metric"):
            classifier.score(x, labels, metric="brier")


class TestRewardFunction:
    @pytest.fixture
    def reward(self):
        x, labels = linearly_separable(300, seed=2)
        classifier = MaskedMLPClassifier(3, n_epochs=10, seed=2)
        return build_task_reward(x, labels, classifier, seed=2)

    def test_reward_in_unit_interval(self, reward):
        assert 0.0 <= reward((0, 1)) <= 1.0

    def test_empty_subset_constant(self, reward):
        assert reward(()) == 0.0

    def test_signal_subset_beats_noise_subset(self, reward):
        assert reward((0, 1)) > reward((2,)) + 0.05

    def test_cache_hits_on_repeat(self, reward):
        reward((0, 1))
        misses = reward.misses
        reward((1, 0))  # same frozen subset, different order
        assert reward.misses == misses
        assert reward.hits >= 1

    def test_cache_disabled_when_size_zero(self):
        x, labels = linearly_separable(100)
        classifier = MaskedMLPClassifier(3, n_epochs=2).fit(x, labels)
        reward = RewardFunction(classifier, x, labels, cache_size=0)
        reward((0,))
        reward((0,))
        assert reward.hits == 0
        assert reward.misses == 2

    def test_cache_eviction_bounds_memory(self):
        x, labels = linearly_separable(100)
        classifier = MaskedMLPClassifier(3, n_epochs=2).fit(x, labels)
        reward = RewardFunction(classifier, x, labels, cache_size=2)
        for subset in [(0,), (1,), (2,), (0, 1)]:
            reward(subset)
        assert len(reward._cache) == 2

    def test_hit_rate(self, reward):
        reward.clear_cache()
        reward((0,))
        reward((0,))
        assert reward.hit_rate() == pytest.approx(0.5)

    def test_all_features_score_uses_full_set(self, reward):
        assert reward.all_features_score == reward((0, 1, 2))

    def test_non_binary_labels_raise_before_pretraining(self):
        from repro.errors import DataValidationError

        x, labels = linearly_separable(50)
        labels[3] = 2
        classifier = MaskedMLPClassifier(3, n_epochs=2)
        with pytest.raises(DataValidationError, match=r"labels must be binary .*\[0, 1, 2\]"):
            build_task_reward(x, labels, classifier)
        with pytest.raises(RuntimeError, match="before fit"):
            classifier.predict_proba(x)

    def test_validation_split_keeps_scores_honest(self):
        """With pure-noise features, validation AUC must stay near chance."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((300, 4))
        labels = rng.integers(0, 2, 300)
        classifier = MaskedMLPClassifier(4, n_epochs=20, seed=1)
        reward = build_task_reward(x, labels, classifier, seed=1)
        assert reward.all_features_score < 0.75
