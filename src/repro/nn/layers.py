"""Core layers with explicit forward/backward passes.

Each :class:`Layer` caches whatever it needs during ``forward`` and consumes
it during ``backward``.  Gradients accumulate on :class:`Parameter` objects;
optimizers read ``parameter.grad`` and write ``parameter.value`` in place so
layers and optimizers stay decoupled.  An optimizer owns that memory: at
construction it rebinds both arrays to views of its flat buffers
(:class:`~repro.nn.optim.Optimizer`), so everything else writes them in
place and never rebinds them.

The training pass also runs K same-shaped networks side by side: a
:meth:`Linear.stack` layer holds their parameters on a leading stack axis
and maps a ``(K, n, in)`` input slice by slice; the activations are
elementwise, so they need no stack-aware code.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence

import numpy as np
from repro.errors import LifecycleError

from repro.analysis.numerics import stable_sigmoid
from repro.nn.initializers import he_init


class Parameter:
    """A trainable tensor together with its accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer(ABC):
    """Base class for differentiable layers.

    Subclasses implement :meth:`forward`, :meth:`backward` and
    :meth:`infer_batch`; parametric layers also override :meth:`parameters`.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Training pass: caches what :meth:`backward` needs."""
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference pass: no activation caching, no RNG, no writes.

        Every network evaluation outside a gradient step goes through here
        (``Agent.act``, TD targets, classifier scoring, selection and
        serving), so evaluating a policy never touches the state
        ``backward`` reads.

        The input is normalised to a 2-D float64 batch once, here; the
        layers then chain through :meth:`infer_batch`, so a forward pays
        for that normalisation once per call instead of once per layer.
        """
        return self.infer_batch(np.atleast_2d(np.asarray(x, dtype=np.float64)))

    @abstractmethod
    def infer_batch(self, x: np.ndarray) -> np.ndarray:
        """:meth:`infer` on an input that already is a 2-D float64 batch.

        Abstract, and deliberately not defaulting to ``forward``: a layer
        without a pure path cannot be instantiated.
        """

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` (dL/d output) to dL/d input."""
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        return []

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.infer(x)


class Linear(Layer):
    """Fully connected layer ``y = x @ W + b``: ``W`` starts He-normal, ``b`` zero.

    :meth:`forward` and :meth:`backward` also take a stacked layer
    (:meth:`stack`): weights ``(K, in, out)``, bias ``(K, out)`` and input
    ``(K, n, in)``.  The matmuls run over the last two axes and the bias
    broadcasts over rows, so on a 2-D input they are the plain layer's
    NumPy calls on the same views, and slice ``k`` of a stacked pass equals
    layer ``k``'s own pass bit for bit.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        name: str = "linear",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"feature dimensions must be positive, got {in_features}, {out_features}"
            )
        self.weight = Parameter(
            f"{name}.weight", he_init(in_features, out_features, rng)
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features))
        self._x: np.ndarray | None = None

    @classmethod
    def stack(cls, layers: Sequence["Linear"]) -> "Linear":
        """One layer running ``layers`` side by side on a leading stack axis.

        Its parameters are copies of theirs stacked along a new axis 0, so
        training it leaves ``layers`` untouched until the caller copies
        slice ``k`` back into layer ``k``.
        """
        stacked = cls.__new__(cls)
        stacked.weight = Parameter(
            layers[0].weight.name, np.stack([layer.weight.value for layer in layers])
        )
        stacked.bias = Parameter(
            layers[0].bias.name, np.stack([layer.bias.value for layer in layers])
        )
        stacked._x = None
        return stacked

    @property
    def in_features(self) -> int:
        return self.weight.shape[-2]

    @property
    def out_features(self) -> int:
        return self.weight.shape[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input with {self.in_features} features, got {x.shape[-1]}"
            )
        self._x = x
        return x @ self.weight.value + self.bias.value[..., None, :]

    def infer_batch(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input with {self.in_features} features, got {x.shape[1]}"
            )
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise LifecycleError("backward called before forward")
        grad_output = np.atleast_2d(grad_output)
        self.weight.grad += self._x.swapaxes(-1, -2) @ grad_output
        self.bias.grad += grad_output.sum(axis=-2)
        return grad_output @ self.weight.value.swapaxes(-1, -2)

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0.0
        return np.maximum(x, 0.0)

    def infer_batch(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise LifecycleError("backward called before forward")
        return grad_output * self._mask


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = stable_sigmoid(x)
        self._out = out
        return out

    def infer_batch(self, x: np.ndarray) -> np.ndarray:
        return stable_sigmoid(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise LifecycleError("backward called before forward")
        return grad_output * self._out * (1.0 - self._out)


class Sequential(Layer):
    """Composes layers in order; backward runs them in reverse."""

    def __init__(self, layers: Sequence[Layer] | Iterable[Layer]) -> None:
        self.layers: list[Layer] = list(layers)
        if not self.layers:
            raise ValueError("Sequential requires at least one layer")

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer_batch(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.infer_batch(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)
