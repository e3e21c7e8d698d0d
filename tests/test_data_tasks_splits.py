"""Unit tests for tasks, task suites and split utilities."""

import numpy as np
import pytest

from repro.data.splits import train_test_split_indices
from repro.data.table import StructuredTable
from repro.data.tasks import Task, TaskSuite


@pytest.fixture
def suite(rng):
    features = rng.standard_normal((20, 5))
    labels = rng.integers(0, 2, size=(20, 4))
    table = StructuredTable(features, labels)
    return TaskSuite("demo", table, [0, 1], [2, 3], ground_truth={0: (1, 2)})


class TestTask:
    def test_properties(self, suite):
        task = suite.seen_tasks[0]
        assert task.n_features == 5
        assert task.labels.shape == (20,)
        assert task.ground_truth_features == (1, 2)

    def test_positive_rate(self, rng):
        table = StructuredTable(rng.standard_normal((4, 2)), np.array([1, 1, 0, 1]))
        task = Task("t", 0, table)
        assert task.positive_rate() == pytest.approx(0.75)


class TestTaskSuite:
    def test_partitions(self, suite):
        assert suite.n_seen == 2
        assert suite.n_unseen == 2
        assert len(suite.all_tasks()) == 4

    def test_overlapping_partitions_raise(self, suite):
        with pytest.raises(ValueError, match="both partitions"):
            TaskSuite("bad", suite.table, [0, 1], [1, 2])

    def test_duplicate_indices_raise(self, suite):
        with pytest.raises(ValueError, match="duplicate"):
            TaskSuite("bad", suite.table, [0, 0], [1])

    def test_out_of_range_raises(self, suite):
        with pytest.raises(IndexError):
            TaskSuite("bad", suite.table, [0], [99])

    def test_split_rows_partitions_all_rows(self, suite, rng):
        train, test = suite.split_rows(0.7, rng)
        assert train.table.n_rows + test.table.n_rows == 20
        assert train.n_seen == suite.n_seen
        assert test.n_unseen == suite.n_unseen

    def test_split_preserves_ground_truth(self, suite, rng):
        train, _ = suite.split_rows(0.5, rng)
        assert train.seen_tasks[0].ground_truth_features == (1, 2)

    def test_split_invalid_fraction(self, suite, rng):
        with pytest.raises(ValueError, match="train_fraction"):
            suite.split_rows(1.5, rng)

    def test_split_is_seed_deterministic(self, suite):
        a, _ = suite.split_rows(0.7, np.random.default_rng(3))
        b, _ = suite.split_rows(0.7, np.random.default_rng(3))
        np.testing.assert_array_equal(a.table.features, b.table.features)


class TestSplitIndices:
    def test_partition_complete_and_disjoint(self, rng):
        train, test = train_test_split_indices(100, 0.7, rng)
        assert len(train) + len(test) == 100
        assert not set(train) & set(test)

    def test_both_sides_non_empty_extreme_fraction(self, rng):
        train, test = train_test_split_indices(10, 0.999, rng)
        assert len(test) >= 1
        train, test = train_test_split_indices(10, 0.001, rng)
        assert len(train) >= 1

    def test_too_few_rows_raise(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            train_test_split_indices(1, 0.5, rng)
