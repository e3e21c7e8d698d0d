"""Statistical descriptors used as task representations and filter scores.

The paper embeds each task into the RL state as the vector of absolute
Pearson correlation coefficients between every feature and the task's label
column (Section III-B).  K-Best ranks features by mutual information with
the label.  Both are implemented here from first principles.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.numerics import safe_div, safe_xlogy

# The normal float range a column's sum of squares must fall in.
_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max


def pearson_representation(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-feature |Pearson correlation| with the label vector.

    Returns a vector in [0, 1] of length ``m``.  Constant features (or a
    constant label vector) get a correlation of 0 rather than NaN.  A
    column of any finite magnitude gets its |Pearson| (see
    :func:`_centered_columns`).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"row mismatch: {features.shape[0]} feature rows vs {labels.shape[0]} labels"
        )
    if features.shape[0] < 2:
        return np.zeros(features.shape[1])
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        x_centered, x_std = _centered_columns(features)
        y_column, y_norm = _centered_columns(labels[:, None])
        denominator = x_std * y_norm[0]
        corr = np.where(
            denominator > 0, x_centered.T @ y_column[:, 0] / denominator, 0.0
        )
    return np.abs(np.clip(corr, -1.0, 1.0))


def mutual_information_scores(
    features: np.ndarray, labels: np.ndarray, n_bins: int = 8
) -> np.ndarray:
    """Estimate I(feature; label) per feature via equal-frequency binning.

    Continuous features are discretised into ``n_bins`` quantile bins, then
    the plug-in mutual-information estimate is computed against the discrete
    label.  Scores are non-negative; larger means more relevant.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"row mismatch: {features.shape[0]} feature rows vs {labels.shape[0]} labels"
        )
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    n, m = features.shape
    if n == 0:
        return np.zeros(m)
    label_values, label_codes = np.unique(labels, return_inverse=True)
    n_classes = len(label_values)
    if n_classes < 2:
        return np.zeros(m)
    label_probs = np.bincount(label_codes, minlength=n_classes) / n

    scores = np.empty(m)
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    for j in range(m):
        column = features[:, j]
        edges = np.unique(np.quantile(column, quantiles))
        codes = np.searchsorted(edges, column, side="right")
        n_feature_bins = int(codes.max()) + 1
        joint = np.zeros((n_feature_bins, n_classes))
        np.add.at(joint, (codes, label_codes), 1.0)
        joint /= n
        feature_probs = joint.sum(axis=1)
        outer = feature_probs[:, None] * label_probs[None, :]
        # joint > 0 implies outer > 0 (both marginals are positive there),
        # so the masked x·log(y) evaluates only well-defined entries.
        terms = safe_xlogy(joint, safe_div(joint, outer, fill=1.0))
        scores[j] = max(0.0, float(terms.sum()))
    return scores


def feature_redundancy_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise |Pearson correlation| between features (m × m).

    Used by the multi-label baselines' redundancy terms.  Constant features
    correlate 0 with everything (and themselves).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    n, m = features.shape
    if n < 2:
        return np.zeros((m, m))
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        centered, std = _centered_columns(features)
        denominator = std[:, None] * std[None, :]
        corr = np.where(denominator > 0, centered.T @ centered / denominator, 0.0)
    return np.abs(np.clip(corr, -1.0, 1.0))


def _centered_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column of ``values`` less its mean, and the norm of the result.

    A column whose sum of squares overflows, or falls below the smallest
    normal float, loses its correlation to the squaring (a finite column
    near 1e160 reads 0, one near 1e-160 loses digits).  |Pearson| does not
    depend on scale, so such a column is redone divided by its largest
    |value|; every other column keeps this arithmetic's bits.  A constant
    column stays 0.  Callers ignore overflow, underflow and invalid
    results (``np.errstate``): the first pass may produce them.
    """
    centered = values - values.mean(axis=0)
    squares = np.sum(centered**2, axis=0)
    if _TINY <= squares.min() and squares.max() <= _HUGE:
        return centered, np.sqrt(squares)
    redo = ~((squares >= _TINY) & (squares <= _HUGE))
    scale = np.max(np.abs(values[:, redo]), axis=0)
    scaled = values[:, redo] / np.where(scale > 0, scale, 1.0)
    centered[:, redo] = scaled - scaled.mean(axis=0)
    squares[redo] = np.sum(centered[:, redo] ** 2, axis=0)
    return centered, np.sqrt(squares)
