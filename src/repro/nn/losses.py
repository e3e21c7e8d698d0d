"""Loss functions with analytic gradients.

Each loss exposes ``forward(pred, target) -> float`` and ``backward() ->
ndarray`` (dL/d pred, averaged over the batch), matching the layer API so a
training step is ``loss.forward(...); net.backward(loss.backward())``.
"""

from __future__ import annotations

import numpy as np
from repro.errors import LifecycleError

from repro.analysis.numerics import safe_log


class Loss:
    """Base class; subclasses cache forward inputs for backward."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> float:
        return self.forward(pred, target)


def _align(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    target = np.asarray(target, dtype=np.float64)
    target = target.reshape(pred.shape)
    return pred, target


class HuberLoss(Loss):
    """Huber (smooth-L1) loss — the standard robust TD-error loss for DQN."""

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = delta
        self._diff: np.ndarray | None = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred, target = _align(pred, target)
        self._diff = pred - target
        abs_diff = np.abs(self._diff)
        quadratic = np.minimum(abs_diff, self.delta)
        linear = abs_diff - quadratic
        return float(np.mean(0.5 * quadratic**2 + self.delta * linear))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise LifecycleError("backward called before forward")
        clipped = np.clip(self._diff, -self.delta, self.delta)
        return clipped / self._diff.size


class BCELoss(Loss):
    """Binary cross-entropy on probabilities in (0, 1).

    A stacked prediction ``(K, n, d)`` from K networks run side by side
    (:meth:`repro.nn.layers.Linear.stack`) is normalised per network: the
    loss is the sum of the K networks' mean losses, so slice ``k`` of the
    gradient is exactly what network ``k``'s own 2-D loss would give.
    """

    def __init__(self, eps: float = 1e-12) -> None:
        self.eps = eps
        self._pred: np.ndarray | None = None
        self._target: np.ndarray | None = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred, target = _align(pred, target)
        pred = np.clip(pred, self.eps, 1.0 - self.eps)
        self._pred, self._target = pred, target
        losses = -np.mean(
            target * safe_log(pred) + (1.0 - target) * safe_log(1.0 - pred),
            axis=(-2, -1),
        )
        return float(np.sum(losses))

    def backward(self) -> np.ndarray:
        if self._pred is None or self._target is None:
            raise LifecycleError("backward called before forward")
        batch = self._pred.shape[-2] * self._pred.shape[-1]  # one network's size
        denom = self._pred * (1.0 - self._pred) * batch
        return (self._pred - self._target) / denom
