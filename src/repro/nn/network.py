"""MLP builder and state-dict (de)serialization helpers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Layer, Linear, ReLU, Sequential, Sigmoid, Tanh

_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid}


class MLP(Sequential):
    """Multi-layer perceptron: Linear → activation per hidden layer.

    ``sizes`` gives the full layer widths, e.g. ``[in, 64, 64, out]``.  The
    output layer is linear (no activation) unless ``output_activation`` is
    given.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "relu",
        output_activation: str | None = None,
        name: str = "mlp",
    ) -> None:
        if len(sizes) < 2:
            raise ValueError(f"MLP needs at least [in, out] sizes, got {list(sizes)}")
        if activation not in _ACTIVATIONS:
            valid = ", ".join(sorted(_ACTIVATIONS))
            raise ValueError(f"unknown activation {activation!r}; expected one of: {valid}")
        weight_init = "he" if activation == "relu" else "xavier"
        layers: list[Layer] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            is_output = i == len(sizes) - 2
            layers.append(
                Linear(fan_in, fan_out, rng, weight_init=weight_init, name=f"{name}.{i}")
            )
            if not is_output:
                layers.append(_ACTIVATIONS[activation]())
            elif output_activation is not None:
                layers.append(_ACTIVATIONS[output_activation]())
        super().__init__(layers)
        self.sizes = list(sizes)

    @property
    def in_features(self) -> int:
        return self.sizes[0]

    @property
    def out_features(self) -> int:
        return self.sizes[-1]


def state_dict(layer: Layer) -> dict[str, np.ndarray]:
    """Snapshot all parameters of ``layer`` as ``{name: copy-of-value}``."""
    snapshot: dict[str, np.ndarray] = {}
    for parameter in layer.parameters():
        if parameter.name in snapshot:
            raise ValueError(f"duplicate parameter name {parameter.name!r}")
        snapshot[parameter.name] = parameter.value.copy()
    return snapshot


def load_state_dict(layer: Layer, snapshot: dict[str, np.ndarray]) -> None:
    """Load parameter values in place; shapes and names must match exactly."""
    parameters = {p.name: p for p in layer.parameters()}
    if set(parameters) != set(snapshot):
        missing = set(parameters) - set(snapshot)
        extra = set(snapshot) - set(parameters)
        raise ValueError(f"state dict mismatch: missing={missing}, extra={extra}")
    for name, parameter in parameters.items():
        value = np.asarray(snapshot[name], dtype=np.float64)
        if value.shape != parameter.value.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: "
                f"{value.shape} vs {parameter.value.shape}"
            )
        parameter.value[...] = value
