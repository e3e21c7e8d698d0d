"""Evaluation substrate: metrics and downstream classifiers.

Downstream quality of a selected subset is measured by training a fresh
RBF kernel classifier on the projected features
(:func:`evaluate_subset_with_svm`), as the paper's evaluation protocol
prescribes.  The reward-model classifier lives in
:mod:`repro.nn.classifier` and the reward function itself in
:mod:`repro.rl.reward` — ``eval`` sits below both in the layer contract
(see ``[tool.repolint.layers]``), so it only provides the metric and SVM
primitives they build on.
"""

from repro.eval.metrics import (
    accuracy_score,
    confusion_counts,
    f1_score,
    precision_score,
    recall_score,
    roc_auc_score,
)
from repro.eval.svm import LinearSVM, evaluate_subset_with_svm

__all__ = [
    "LinearSVM",
    "accuracy_score",
    "confusion_counts",
    "evaluate_subset_with_svm",
    "f1_score",
    "precision_score",
    "recall_score",
    "roc_auc_score",
]
