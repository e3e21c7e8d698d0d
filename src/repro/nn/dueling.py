"""Dueling value/advantage network head (Wang et al., 2016; paper Eqn. 1c/3).

The Q-value decomposes as::

    Q(s, a) = V(s) + (A(s, a) - mean_a' A(s, a'))

``f^E`` in the paper broadcasts the scalar V across actions; ``f^N`` zero-
centres the advantage vector.  Both streams share a trunk MLP and gradients
flow through both heads back into the trunk.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Layer, Linear, Parameter, ReLU, Sequential
from repro.nn.network import MLP


class DuelingHead(Layer):
    """Splits a trunk representation into V(s) and zero-centred A(s, ·)."""

    def __init__(self, in_features: int, n_actions: int, rng: np.random.Generator) -> None:
        if n_actions < 2:
            raise ValueError(f"dueling head needs at least 2 actions, got {n_actions}")
        self.value_head = Linear(in_features, 1, rng, name="dueling.value")
        self.advantage_head = Linear(in_features, n_actions, rng, name="dueling.advantage")
        self.n_actions = n_actions

    def forward(self, x: np.ndarray) -> np.ndarray:
        value = self.value_head.forward(x)
        advantage = self.advantage_head.forward(x)
        centred = advantage - advantage.mean(axis=1, keepdims=True)
        return value + centred

    def infer_batch(self, x: np.ndarray) -> np.ndarray:
        value = self.value_head.infer_batch(x)
        advantage = self.advantage_head.infer_batch(x)
        # What ``advantage.mean(axis=1, keepdims=True)`` computes, minus the
        # wrapper: the same pairwise sum, divided by the same count.
        mean = np.add.reduce(advantage, axis=1, keepdims=True) / self.n_actions
        return value + (advantage - mean)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.atleast_2d(grad_output)
        # dQ/dV broadcasts: each action's gradient contributes to the scalar V.
        grad_value = grad_output.sum(axis=1, keepdims=True)
        # Zero-centring A means dQ/dA = grad - mean(grad) per row.
        grad_advantage = grad_output - grad_output.mean(axis=1, keepdims=True)
        grad_in = self.value_head.backward(grad_value)
        grad_in = grad_in + self.advantage_head.backward(grad_advantage)
        return grad_in

    def parameters(self) -> list[Parameter]:
        return self.value_head.parameters() + self.advantage_head.parameters()


class DuelingNetwork(Sequential):
    """Trunk MLP followed by a :class:`DuelingHead`.

    ``hidden`` lists the trunk's hidden widths; the final hidden width feeds
    both the value and advantage streams.
    """

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        if not hidden:
            raise ValueError("DuelingNetwork requires at least one hidden layer")
        trunk = MLP([state_dim, *hidden], rng, activation="relu", name="trunk")
        # MLP with sizes [in, h1, ..., hk] ends in a Linear; append the
        # activation for the last trunk layer before the dueling split.
        layers: list[Layer] = [*trunk.layers, ReLU(), DuelingHead(hidden[-1], n_actions, rng)]
        super().__init__(layers)
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.hidden = list(hidden)
