"""Optimizers operating on :class:`~repro.nn.layers.Parameter` lists."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Parameter


class Optimizer:
    """Base optimizer owning its parameters' memory.

    Construction moves every parameter's value and gradient into one flat
    buffer each and rebinds ``Parameter.value``/``.grad`` to views of them,
    so a step, :meth:`zero_grad` and the clip rescale are one elementwise
    pass.  Nothing may rebind ``value`` or ``grad`` afterwards.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer requires at least one parameter")
        self.lr = lr
        bounds = np.cumsum([0] + [p.value.size for p in self.parameters]).tolist()
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._values = np.concatenate([p.value.ravel() for p in self.parameters])
        # Transient: zeroed before every backward pass, never checkpointed.
        self._grads = np.concatenate(  # repolint: disable=CKPT201
            [p.grad.ravel() for p in self.parameters]
        )
        for parameter, value, grad in zip(
            self.parameters, self._views(self._values), self._views(self._grads)
        ):
            parameter.value, parameter.grad = value, grad

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat`` cut into one view per parameter, shaped like its value."""
        return [
            flat[where].reshape(p.shape) for p, where in zip(self.parameters, self._slices)
        ]

    def step(self) -> None:
        raise NotImplementedError

    def capture_state(self) -> tuple[dict, dict[str, "np.ndarray"]]:
        """Snapshot optimizer state as ``(json_meta, arrays)`` for checkpoints."""
        return {}, {}

    def restore_state(self, meta: dict, arrays: dict[str, "np.ndarray"]) -> None:
        """Restore a snapshot from :meth:`capture_state`."""

    def zero_grad(self) -> None:
        self._grads[...] = 0.0

    def clip_grad_norm(self, max_norm: float) -> float:
        """Globally rescale gradients to at most ``max_norm``; returns the norm.

        The norm sums per-parameter squared sums in parameter order, so it
        rounds exactly as a per-array loop does.
        """
        if max_norm <= 0.0:
            raise ValueError(f"max_norm must be positive, got {max_norm}")
        squares = np.square(self._grads)
        total = np.sqrt(sum(float(np.add.reduce(squares[where])) for where in self._slices))
        if total > max_norm:
            self._grads *= max_norm / (total + 1e-12)
        return total


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    ``m`` and ``v`` are flat; checkpoints key them per parameter (``m/i``,
    ``v/i``), shaped like parameter ``i``.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._step_count = 0
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)

    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        arrays: dict[str, np.ndarray] = {}
        for i, (m, v) in enumerate(zip(self._views(self._m), self._views(self._v))):
            arrays[f"m/{i}"] = m.copy()
            arrays[f"v/{i}"] = v.copy()
        meta = {"step_count": self._step_count, "n_parameters": len(self.parameters)}
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        _check_parameter_count(meta, self.parameters)
        self._step_count = int(meta["step_count"])
        for i, (m, v) in enumerate(zip(self._views(self._m), self._views(self._v))):
            m[...] = arrays[f"m/{i}"]
            v[...] = arrays[f"v/{i}"]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        grad, m, v = self._grads, self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        self._values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _check_parameter_count(meta: dict, parameters: Sequence[Parameter]) -> None:
    captured = meta.get("n_parameters")
    if captured != len(parameters):
        raise ValueError(
            f"optimizer snapshot covers {captured} parameters, "
            f"this optimizer has {len(parameters)}"
        )
