"""Pretrained masked-input classifier backing the RL reward (paper Eqn. 2).

Training an evaluator from scratch for every candidate subset would make the
reward prohibitively slow, so the paper pretrains one classifier per task on
*all* features and, at reward time, feeds it the full feature vector with
deselected entries masked to zero.  :class:`MaskedMLPClassifier` implements
exactly that: a small MLP trained with BCE loss on all features, randomly
*feature-dropout-augmented* during training so it stays calibrated when
columns are zeroed at evaluation time.

:func:`pretrain` trains a fit's K classifiers in lockstep, as one stacked
network; :meth:`MaskedMLPClassifier.fit` is its K = 1 call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from repro.errors import BoundsError, NotFittedError

from repro.eval.metrics import accuracy_score, f1_score, roc_auc_score
from repro.nn.layers import Layer, Linear, Sequential
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
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.n_features = n_features
        self.hidden = tuple(hidden)
        self.lr = lr
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.mask_augment = mask_augment
        self._rng = np.random.default_rng(seed)
        self._net = MLP([n_features, *hidden, 1], self._rng, output_activation="sigmoid")
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._fitted = False

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "MaskedMLPClassifier":
        """Pretrain on all features with random mask augmentation.

        The K = 1 call of :func:`pretrain`, over every row of ``features``.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(
                f"expected features of shape (n, {self.n_features}), got {features.shape}"
            )
        pretrain([self], features, [np.arange(features.shape[0])], [labels])
        return self

    def _drop_mask(self) -> np.ndarray:
        """One minibatch's augmentation mask: the columns to zero.

        Never drops every column: a full drop keeps one column, drawn
        uniformly.
        """
        drop = self._rng.random(self.n_features) < self.mask_augment
        if drop.all():
            drop[self._rng.integers(self.n_features)] = False
        return drop

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


def pretrain(
    classifiers: Sequence[MaskedMLPClassifier],
    features: np.ndarray,
    rows: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
) -> None:
    """Pretrain K classifiers in lockstep, as one stacked network.

    Classifier ``k`` fits on rows ``rows[k]`` of the shared ``features``
    table, labelled ``labels[k]``.  The classifiers must share every
    hyperparameter and row count, so each minibatch position is one
    forward/backward over a ``(K, batch, m)`` block and one :class:`Adam`
    step over the stacked weights (:meth:`repro.nn.layers.Linear.stack`).

    Bit-identical to training each classifier alone: classifier ``k``
    draws its epoch permutations and augmentation masks from its own
    generator in the order a lone fit does, every operation on the block
    is either elementwise or runs slice by slice, and the loss is
    normalised per network.  Each minibatch gathers its raw rows from the
    table and standardises only them (elementwise, so the same values as
    slicing a standardised copy), so memory does not grow with K.
    """
    first = classifiers[0]
    settings = {
        (c.n_features, c.hidden, c.lr, c.n_epochs, c.batch_size, c.mask_augment)
        for c in classifiers
    }
    if len(settings) > 1:
        raise ValueError("classifiers pretrained together must share hyperparameters")
    if not len(classifiers) == len(rows) == len(labels):
        raise ValueError(
            f"need rows and labels per classifier: {len(classifiers)} classifiers, "
            f"{len(rows)} row sets, {len(labels)} label sets"
        )
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != first.n_features:
        raise ValueError(
            f"expected features of shape (n, {first.n_features}), got {features.shape}"
        )
    row_table = np.stack([np.asarray(r, dtype=np.int64).reshape(-1) for r in rows])
    label_table = np.stack(
        [np.asarray(y, dtype=np.float64).reshape(-1) for y in labels]
    )
    if label_table.shape != row_table.shape:
        raise ValueError(
            f"row mismatch: {row_table.shape[1]} rows vs {label_table.shape[1]} labels"
        )

    for classifier, fit_rows in zip(classifiers, row_table):
        fit_features = features[fit_rows]
        classifier._mean = fit_features.mean(axis=0)
        std = fit_features.std(axis=0)
        classifier._std = np.where(std > 0, std, 1.0)
    means = np.stack([c._mean for c in classifiers])[:, None, :]
    stds = np.stack([c._std for c in classifiers])[:, None, :]

    layers: list[Layer] = [
        Linear.stack(position) if isinstance(position[0], Linear) else type(position[0])()
        for position in zip(*(classifier._net.layers for classifier in classifiers))
    ]
    network = Sequential(layers)
    optimizer = Adam(network.parameters(), lr=first.lr)
    loss = BCELoss()
    n = row_table.shape[1]
    for _ in range(first.n_epochs):
        orders = np.stack([classifier._rng.permutation(n) for classifier in classifiers])
        epoch_rows = np.take_along_axis(row_table, orders, axis=1)
        epoch_labels = np.take_along_axis(label_table, orders, axis=1)
        for start in range(0, n, first.batch_size):
            stop = start + first.batch_size
            xb = (features[epoch_rows[:, start:stop]] - means) / stds
            if first.mask_augment > 0.0:
                drops = np.stack([classifier._drop_mask() for classifier in classifiers])
                np.copyto(xb, 0.0, where=drops[:, None, :])
            probs = network.forward(xb)
            loss.forward(probs, epoch_labels[:, start:stop])
            optimizer.zero_grad()
            network.backward(loss.backward())
            optimizer.step()

    for k, classifier in enumerate(classifiers):
        for stacked, parameter in zip(network.parameters(), classifier._net.parameters()):
            parameter.value[...] = stacked.value[k]
        classifier._fitted = True
