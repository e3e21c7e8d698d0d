"""Linear SVM trained by Pegasos-style stochastic subgradient descent.

:class:`LinearSVM` is the linear model RFE and the multilabel baselines
rank features with.  Pegasos (Shalev-Shwartz et al., 2011) optimises the
L2-regularised hinge loss with a 1/(λ t) step size, which is deterministic
given the RNG seed and fast enough to sit inside benchmark sweeps.

:func:`evaluate_subset_with_svm` is the paper's protocol: for each unseen
task a classifier is trained on the *projected* selected features and its
F1/AUC on held-out rows measures subset quality.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from repro.errors import NotFittedError

from repro.eval.kernel import KernelRidgeClassifier
from repro.eval.metrics import f1_score, roc_auc_score


class LinearSVM:
    """Binary linear SVM with hinge loss and L2 regularisation."""

    def __init__(
        self,
        lambda_reg: float = 1e-3,
        n_epochs: int = 20,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        if lambda_reg <= 0.0:
            raise ValueError(f"lambda_reg must be positive, got {lambda_reg}")
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.lambda_reg = lambda_reg
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.seed = seed
        self.weights: np.ndarray | None = None
        self.bias: float = 0.0
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LinearSVM":
        """Train on features (n × d) and binary labels in {0, 1}."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels).reshape(-1)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"row mismatch: {features.shape[0]} rows vs {labels.shape[0]} labels"
            )
        if features.shape[1] == 0:
            # An empty subset carries no signal; predict the majority class.
            self.weights = np.zeros(0)
            self.bias = 1.0 if np.mean(labels) >= 0.5 else -1.0
            self._mean = np.zeros(0)
            self._std = np.ones(0)
            return self

        self._mean = features.mean(axis=0)
        self._std = features.std(axis=0)
        self._std = np.where(self._std > 0, self._std, 1.0)
        x = (features - self._mean) / self._std
        y = np.where(labels == 1, 1.0, -1.0)

        rng = np.random.default_rng(self.seed)
        n, d = x.shape
        w = np.zeros(d)
        b = 0.0
        t = 0
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                t += 1
                batch = order[start : start + self.batch_size]
                xb, yb = x[batch], y[batch]
                margins = yb * (xb @ w + b)
                violators = margins < 1.0
                eta = 1.0 / (self.lambda_reg * t)
                grad_w = self.lambda_reg * w
                grad_b = 0.0
                if np.any(violators):
                    grad_w = grad_w - (yb[violators, None] * xb[violators]).mean(axis=0)
                    grad_b = -float(yb[violators].mean())
                w = w - eta * grad_w
                b = b - eta * grad_b
                # Pegasos projection step keeps ||w|| <= 1/sqrt(lambda).
                norm = np.linalg.norm(w)
                limit = 1.0 / np.sqrt(self.lambda_reg)
                if norm > limit:
                    w *= limit / norm
        self.weights = w
        self.bias = b
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Signed margins; positive means class 1."""
        if self.weights is None or self._mean is None or self._std is None:
            raise NotFittedError("decision_function called before fit")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if features.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"expected {self.weights.shape[0]} features, got {features.shape[1]}"
            )
        if self.weights.size == 0:
            return np.full(features.shape[0], self.bias)
        x = (features - self._mean) / self._std
        return x @ self.weights + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard {0, 1} predictions."""
        return (self.decision_function(features) >= 0.0).astype(np.int64)


def evaluate_subset_with_svm(
    subset: Sequence[int],
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    seed: int = 0,
) -> dict[str, float]:
    """Paper evaluation protocol: train an SVM on the projected subset.

    LIBSVM — the paper's evaluator — defaults to an RBF kernel, so this
    scores with the non-linear
    :class:`~repro.eval.kernel.KernelRidgeClassifier`.  Returns
    ``{"f1": ..., "auc": ...}`` on the held-out rows.  An empty subset
    degrades to the majority-class predictor.
    """
    idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=np.int64)
    train_x = np.asarray(train_features, dtype=np.float64)[:, idx]
    test_x = np.asarray(test_features, dtype=np.float64)[:, idx]
    model = KernelRidgeClassifier(seed=seed).fit(train_x, train_labels)
    scores = model.decision_function(test_x)
    predictions = (scores >= 0.0).astype(np.int64)
    return {
        "f1": f1_score(test_labels, predictions),
        "auc": roc_auc_score(test_labels, scores),
    }
