"""Pretrained masked-input classifier backing the RL reward (paper Eqn. 2).

Training an evaluator from scratch for every candidate subset would make the
reward prohibitively slow, so the paper pretrains one classifier per task on
*all* features and, at reward time, feeds it the full feature vector with
deselected entries masked to zero.  :class:`MaskedMLPClassifier` implements
exactly that: a small MLP trained with BCE loss on all features, randomly
*feature-dropout-augmented* during training so it stays calibrated when
columns are zeroed at evaluation time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from repro.errors import BoundsError, NotFittedError

from repro.eval.metrics import accuracy_score, f1_score, roc_auc_score
from repro.nn.losses import BCELoss
from repro.nn.network import MLP
from repro.nn.optim import Adam


class MaskedMLPClassifier:
    """Binary MLP classifier scoring masked feature subsets.

    Args:
        n_features: width of the full feature vector ``m``.
        hidden: hidden-layer widths of the MLP.
        lr: Adam learning rate.
        n_epochs: training epochs over the full dataset.
        batch_size: minibatch size.
        mask_augment: probability that a feature column is zeroed in each
            training minibatch.  This simulates evaluation-time masking so
            the classifier's scores remain meaningful for partial subsets —
            without it, a net trained only on complete vectors collapses
            when most inputs are zero.
        seed: RNG seed for initialization, shuffling and augmentation.
    """

    def __init__(
        self,
        n_features: int,
        hidden: Sequence[int] = (32, 16),
        lr: float = 1e-2,
        n_epochs: int = 30,
        batch_size: int = 64,
        mask_augment: float = 0.3,
        seed: int = 0,
    ) -> None:
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if not 0.0 <= mask_augment < 1.0:
            raise ValueError(f"mask_augment must be in [0, 1), got {mask_augment}")
        self.n_features = n_features
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.mask_augment = mask_augment
        self._rng = np.random.default_rng(seed)
        self._net = MLP(
            [n_features, *hidden, 1],
            self._rng,
            activation="relu",
            output_activation="sigmoid",
        )
        self._optimizer = Adam(self._net.parameters(), lr=lr)
        self._loss = BCELoss()
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._fitted = False

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "MaskedMLPClassifier":
        """Pretrain on all features with random mask augmentation."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64).reshape(-1)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(
                f"expected features of shape (n, {self.n_features}), got {features.shape}"
            )
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"row mismatch: {features.shape[0]} rows vs {labels.shape[0]} labels"
            )
        self._mean = features.mean(axis=0)
        self._std = features.std(axis=0)
        self._std = np.where(self._std > 0, self._std, 1.0)
        x = (features - self._mean) / self._std
        n = x.shape[0]
        for _ in range(self.n_epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                xb = x[batch]
                if self.mask_augment > 0.0:
                    drop = self._rng.random(self.n_features) < self.mask_augment
                    if drop.all():
                        drop[self._rng.integers(self.n_features)] = False
                    xb = xb.copy()
                    xb[:, drop] = 0.0
                probs = self._net.forward(xb)
                self._loss.forward(probs, labels[batch])
                self._optimizer.zero_grad()
                self._net.backward(self._loss.backward())
                self._optimizer.step()
        self._fitted = True
        return self

    def predict_proba(
        self, features: np.ndarray, subset: Sequence[int] | None = None
    ) -> np.ndarray:
        """P(y=1) for each row; if ``subset`` is given, mask the rest to zero.

        Masking happens in *standardised* space (zero = the column mean),
        matching how the augmentation trained the network.
        """
        if not self._fitted or self._mean is None or self._std is None:
            raise NotFittedError("predict_proba called before fit")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(
                f"expected features of shape (n, {self.n_features}), got {features.shape}"
            )
        x = (features - self._mean) / self._std
        if subset is not None:
            idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= self.n_features):
                raise BoundsError(
                    f"subset indices must lie in [0, {self.n_features})"
                )
            mask = np.zeros(self.n_features, dtype=bool)
            mask[idx] = True
            x = x.copy()
            x[:, ~mask] = 0.0
        return self._net.infer(x).reshape(-1)

    def score(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        subset: Sequence[int] | None = None,
        metric: str = "auc",
    ) -> float:
        """Evaluate the pretrained net on a (possibly masked) feature view."""
        probs = self.predict_proba(features, subset=subset)
        labels = np.asarray(labels).reshape(-1)
        if metric == "auc":
            return roc_auc_score(labels, probs)
        if metric == "f1":
            return f1_score(labels, (probs >= 0.5).astype(np.int64))
        if metric == "accuracy":
            return accuracy_score(labels, (probs >= 0.5).astype(np.int64))
        raise ValueError(f"metric must be 'auc', 'f1' or 'accuracy', got {metric!r}")
