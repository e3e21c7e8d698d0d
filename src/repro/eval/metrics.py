"""Binary classification metrics implemented from first principles.

The paper reports Avg F1-score and Avg AUC over unseen tasks; the reward
function uses AUC.  All functions take 1-D arrays of true labels in {0, 1}
and either hard predictions (F1/precision/recall/accuracy) or continuous
scores (AUC).
"""

from __future__ import annotations

import numpy as np
from repro.errors import DataValidationError


def binary_labels(labels: np.ndarray, name: str = "y_true") -> np.ndarray:
    """``labels`` flattened to int64; :class:`DataValidationError` naming
    ``name`` if any is not 0 or 1.  ``np.unique`` runs only to word the error.
    """
    labels = np.asarray(labels).reshape(-1)
    if not ((labels == 0) | (labels == 1)).all():
        unique = set(np.unique(labels).tolist())
        raise DataValidationError(
            f"{name} must be binary in {{0, 1}}, got values {sorted(unique)}"
        )
    return labels.astype(np.int64)


def _validate_pair(y_true: np.ndarray, y_other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true).reshape(-1)
    y_other = np.asarray(y_other, dtype=np.float64).reshape(-1)
    if y_true.shape != y_other.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_other.shape}")
    if y_true.size == 0:
        raise ValueError("metrics are undefined on empty inputs")
    return binary_labels(y_true), y_other


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[int, int, int, int]:
    """Return (tp, fp, fn, tn) for binary predictions."""
    y_true, y_pred = _validate_pair(y_true, y_pred)
    y_pred = (y_pred >= 0.5).astype(np.int64)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    return tp, fp, fn, tn


def precision_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """TP / (TP + FP); 0 when nothing is predicted positive."""
    tp, fp, _, _ = confusion_counts(y_true, y_pred)
    return tp / (tp + fp) if tp + fp else 0.0


def recall_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """TP / (TP + FN); 0 when there are no positives."""
    tp, _, fn, _ = confusion_counts(y_true, y_pred)
    return tp / (tp + fn) if tp + fn else 0.0


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    precision = precision_score(y_true, y_pred)
    recall = recall_score(y_true, y_pred)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct hard predictions."""
    tp, fp, fn, tn = confusion_counts(y_true, y_pred)
    return (tp + tn) / (tp + fp + fn + tn)


def roc_auc_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic (tie-aware).

    AUC equals the probability that a random positive scores above a random
    negative, with ties counting one half.  Degenerate inputs (a single
    class) return 0.5 — the chance level — rather than raising, because the
    RL reward is called on arbitrary label splits during training.

    Loop-free, since every reward miss calls it: a tie group starts where
    a sorted score differs from the one before (NaNs rank alone, ±0.0 tie).
    """
    y_true, y_score = _validate_pair(y_true, y_score)
    n_pos = int(np.sum(y_true == 1))
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(y_score, kind="mergesort")
    sorted_scores = y_score[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))
    )
    ends = np.append(starts[1:], y_true.size) - 1
    ranks = np.empty(y_true.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum_pos = float(np.sum(ranks[y_true == 1]))
    u_statistic = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)
