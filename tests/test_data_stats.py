"""Tests for correlation / mutual-information statistics."""

import numpy as np
import pytest

from repro.data.catalog import DATASETS
from repro.data.stats import (
    feature_redundancy_matrix,
    mutual_information_scores,
    pearson_representation,
)
from repro.data.synthetic import generate_suite


def reference_pearson(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``pearson_representation`` before columns of extreme magnitude were
    rescaled, frozen as the oracle for every other column."""
    x_centered = features - features.mean(axis=0)
    y_centered = labels - labels.mean()
    x_std = np.sqrt(np.sum(x_centered**2, axis=0))
    y_std = np.sqrt(np.sum(y_centered**2))
    denominator = x_std * y_std
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denominator > 0, x_centered.T @ y_centered / denominator, 0.0)
    return np.abs(np.clip(corr, -1.0, 1.0))


def two_correlated_columns(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.integers(0, 2, 200).astype(float)
    features = np.column_stack(
        [labels + rng.standard_normal(200), labels + 0.9 * rng.standard_normal(200)]
    )
    return features, labels


class TestPearsonRepresentation:
    def test_perfect_correlation_is_one(self, rng):
        x = rng.standard_normal((100, 1))
        representation = pearson_representation(x, x[:, 0])
        assert representation[0] == pytest.approx(1.0)

    def test_sign_is_dropped(self, rng):
        x = rng.standard_normal((100, 1))
        representation = pearson_representation(x, -x[:, 0])
        assert representation[0] == pytest.approx(1.0)

    def test_constant_feature_scores_zero(self, rng):
        x = np.hstack([np.ones((50, 1)), rng.standard_normal((50, 1))])
        representation = pearson_representation(x, rng.integers(0, 2, 50))
        assert representation[0] == 0.0

    def test_constant_labels_score_zero(self, rng):
        representation = pearson_representation(
            rng.standard_normal((50, 3)), np.ones(50)
        )
        np.testing.assert_array_equal(representation, 0.0)

    def test_independent_feature_scores_low(self, rng):
        x = rng.standard_normal((2000, 1))
        labels = rng.integers(0, 2, 2000)
        assert pearson_representation(x, labels)[0] < 0.1

    def test_output_in_unit_interval(self, rng):
        representation = pearson_representation(
            rng.standard_normal((60, 8)), rng.integers(0, 2, 60)
        )
        assert np.all((representation >= 0) & (representation <= 1))

    def test_row_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="row mismatch"):
            pearson_representation(rng.standard_normal((5, 2)), np.zeros(6))

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-160])
    def test_scale_of_a_column_or_the_labels_does_not_matter(self, rng, scale):
        features, labels = two_correlated_columns(rng)
        expected = pearson_representation(features, labels)
        scaled = features.copy()
        scaled[:, 1] *= scale
        representation = pearson_representation(scaled, labels)
        # The untouched column keeps its bits.
        assert representation[0] == expected[0]
        assert representation[1] == pytest.approx(expected[1], abs=1e-12)
        np.testing.assert_allclose(
            pearson_representation(features, labels * scale), expected, atol=1e-12
        )

    def test_column_whose_mean_overflows(self, rng):
        features, labels = two_correlated_columns(rng)
        expected = pearson_representation(features, labels)
        shifted = features.copy()
        shifted[:, 1] = 1e306 * (1.0 + 0.1 * features[:, 1])
        with np.errstate(over="ignore"):
            assert np.isinf(shifted[:, 1].mean())
        np.testing.assert_allclose(
            pearson_representation(shifted, labels), expected, atol=1e-12
        )

    def test_constant_column_of_any_magnitude_scores_zero(self, rng):
        features, labels = two_correlated_columns(rng)
        for value in (1e-300, 1e306, -1.7e308):
            constant = features.copy()
            constant[:, 1] = value
            assert pearson_representation(constant, labels)[1] == 0.0

    def test_select_wide_pools_keep_their_bits(self):
        """The bootstrap pools the select and serve benchmarks ask, on the
        emotions twin, are representations of ordinary magnitude: every
        one equals the reference's bit for bit."""
        suite = generate_suite(DATASETS["emotions"].to_synthetic())
        n = suite.table.n_rows
        for seed in (0, 41):
            rng = np.random.default_rng([seed, 1])
            for index in range(256):
                task = suite.unseen_tasks[index % len(suite.unseen_tasks)]
                table = suite.table.select_rows(rng.integers(0, n, size=n))
                features = table.features
                labels = table.label_column(task.label_index)
                representation = pearson_representation(features, labels)
                expected = reference_pearson(features, labels)
                assert representation.tobytes() == expected.tobytes()


class TestMutualInformation:
    def test_informative_feature_beats_noise(self, rng):
        labels = rng.integers(0, 2, 1000)
        informative = labels + 0.3 * rng.standard_normal(1000)
        noise = rng.standard_normal(1000)
        scores = mutual_information_scores(
            np.column_stack([informative, noise]), labels
        )
        assert scores[0] > scores[1] + 0.1

    def test_non_negative(self, rng):
        scores = mutual_information_scores(
            rng.standard_normal((200, 5)), rng.integers(0, 2, 200)
        )
        assert np.all(scores >= 0.0)

    def test_single_class_labels_score_zero(self, rng):
        scores = mutual_information_scores(rng.standard_normal((50, 3)), np.ones(50))
        np.testing.assert_array_equal(scores, 0.0)

    def test_invalid_bins_raise(self, rng):
        with pytest.raises(ValueError, match="n_bins"):
            mutual_information_scores(
                rng.standard_normal((10, 2)), np.zeros(10), n_bins=1
            )

    def test_perfectly_predictive_feature_near_label_entropy(self, rng):
        labels = rng.integers(0, 2, 2000)
        scores = mutual_information_scores(labels[:, None].astype(float), labels)
        entropy = -np.mean(labels) * np.log(np.mean(labels)) - (
            1 - np.mean(labels)
        ) * np.log(1 - np.mean(labels))
        assert scores[0] == pytest.approx(entropy, rel=0.05)


class TestRedundancyMatrix:
    def test_diagonal_is_one(self, rng):
        matrix = feature_redundancy_matrix(rng.standard_normal((100, 4)))
        np.testing.assert_allclose(np.diag(matrix), 1.0)

    def test_symmetric(self, rng):
        matrix = feature_redundancy_matrix(rng.standard_normal((100, 4)))
        np.testing.assert_allclose(matrix, matrix.T)

    def test_duplicated_column_fully_redundant(self, rng):
        x = rng.standard_normal((100, 1))
        matrix = feature_redundancy_matrix(np.hstack([x, x]))
        assert matrix[0, 1] == pytest.approx(1.0)

    def test_constant_column_zero(self, rng):
        x = np.hstack([np.ones((50, 1)), rng.standard_normal((50, 1))])
        matrix = feature_redundancy_matrix(x)
        assert matrix[0, 1] == 0.0
        assert matrix[0, 0] == 0.0

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-160])
    def test_scale_of_a_column_does_not_matter(self, rng, scale):
        features, _ = two_correlated_columns(rng)
        features = np.column_stack([features, rng.standard_normal(200)])
        expected = feature_redundancy_matrix(features)
        scaled = features.copy()
        scaled[:, 1] *= scale
        matrix = feature_redundancy_matrix(scaled)
        np.testing.assert_allclose(matrix, expected, atol=1e-12)
        # Entries between untouched columns keep their bits.
        assert matrix[0, 2] == expected[0, 2]
        assert matrix[2, 2] == expected[2, 2]
