"""Unit tests for StructuredTable."""

import numpy as np
import pytest

from repro.data.table import StructuredTable


@pytest.fixture
def table(rng):
    features = rng.standard_normal((10, 4))
    labels = rng.integers(0, 2, size=(10, 3))
    return StructuredTable(features, labels)


class TestConstruction:
    def test_shapes(self, table):
        assert table.n_rows == 10
        assert table.n_features == 4
        assert table.n_labels == 3

    def test_default_names(self, table):
        assert table.feature_names == ["f0", "f1", "f2", "f3"]
        assert table.label_names == ["y0", "y1", "y2"]

    def test_1d_labels_promoted(self, rng):
        table = StructuredTable(rng.standard_normal((5, 2)), np.zeros(5))
        assert table.n_labels == 1

    def test_row_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="row mismatch"):
            StructuredTable(rng.standard_normal((5, 2)), np.zeros(6))

    def test_wrong_name_count_raises(self, rng):
        with pytest.raises(ValueError, match="feature names"):
            StructuredTable(
                rng.standard_normal((5, 2)), np.zeros(5), feature_names=["a"]
            )

    def test_non_2d_features_raise(self):
        with pytest.raises(ValueError, match="2-D"):
            StructuredTable(np.zeros(5), np.zeros(5))


class TestLabelAccess:
    def test_by_index(self, table):
        np.testing.assert_array_equal(table.label_column(1), table.labels[:, 1])

    def test_by_name(self, table):
        np.testing.assert_array_equal(table.label_column("y2"), table.labels[:, 2])

    def test_unknown_name_raises(self, table):
        with pytest.raises(KeyError, match="no label column"):
            table.label_column("nope")

    def test_out_of_range_index_raises(self, table):
        with pytest.raises(IndexError):
            table.label_column(99)


class TestProjection:
    def test_select_rows_copies(self, table):
        subset = table.select_rows([0, 2, 4])
        assert subset.n_rows == 3
        subset.features[0, 0] = 999.0
        assert table.features[0, 0] != 999.0
