"""A relational table of determinant and dependent attributes.

The paper (Section II-A) formulates structured data as one relational table
``T`` with ``m`` determinant attributes (features) and ``k`` dependent
attributes (prediction targets).  :class:`StructuredTable` is that object:
a dense float feature block plus a binary label block, with named columns
and row projection.  The reward's feature masking (Eqn. 2's ``X^{F'}``)
lives in :meth:`repro.nn.classifier.MaskedMLPClassifier.predict_proba`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import BoundsError


class StructuredTable:
    """In-memory relational table with m features and k label columns."""

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        feature_names: Sequence[str] | None = None,
        label_names: Sequence[str] | None = None,
    ) -> None:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim == 1:
            labels = labels[:, None]
        if labels.ndim != 2:
            raise ValueError(f"labels must be 1-D or 2-D, got shape {labels.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"row mismatch: {features.shape[0]} feature rows vs "
                f"{labels.shape[0]} label rows"
            )
        if not np.all(np.isfinite(features)):
            bad = int(np.sum(~np.isfinite(features)))
            raise ValueError(
                f"features contain {bad} non-finite values; impute or drop "
                f"them before building a StructuredTable"
            )
        self.features = features
        self.labels = labels.astype(np.int64)
        self.feature_names = list(
            feature_names
            if feature_names is not None
            else (f"f{i}" for i in range(features.shape[1]))
        )
        self.label_names = list(
            label_names
            if label_names is not None
            else (f"y{i}" for i in range(labels.shape[1]))
        )
        if len(self.feature_names) != features.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} feature names for "
                f"{features.shape[1]} feature columns"
            )
        if len(self.label_names) != self.labels.shape[1]:
            raise ValueError(
                f"{len(self.label_names)} label names for "
                f"{self.labels.shape[1]} label columns"
            )

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]

    def label_column(self, name_or_index: str | int) -> np.ndarray:
        """Return one dependent attribute as a 1-D int array."""
        index = self._label_index(name_or_index)
        return self.labels[:, index]

    def _label_index(self, name_or_index: str | int) -> int:
        if isinstance(name_or_index, str):
            try:
                return self.label_names.index(name_or_index)
            except ValueError:
                raise KeyError(f"no label column named {name_or_index!r}") from None
        index = int(name_or_index)
        if not 0 <= index < self.n_labels:
            raise BoundsError(f"label index {index} out of range [0, {self.n_labels})")
        return index

    def select_rows(self, indices: np.ndarray | Sequence[int]) -> "StructuredTable":
        """Project onto a subset of rows (copying)."""
        idx = np.asarray(indices, dtype=np.int64)
        return StructuredTable(
            self.features[idx],
            self.labels[idx],
            feature_names=self.feature_names,
            label_names=self.label_names,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StructuredTable(rows={self.n_rows}, features={self.n_features}, "
            f"labels={self.n_labels})"
        )
