"""Minimal NumPy deep-learning substrate.

The paper trains small multi-layer perceptrons (a Dueling Q-network and a
masked-input classifier) with PyTorch.  This package provides the same
building blocks — dense layers, activations, losses, Adam and a
dueling value/advantage head — implemented with explicit NumPy forward and
backward passes so the reproduction has no dependency on a GPU framework.

The API is intentionally close to the familiar ``torch.nn`` shape::

    net = MLP([state_dim, 64, 64, n_actions], activation="relu")
    loss = HuberLoss()
    opt = Adam(net.parameters(), lr=1e-3)

    pred = net.forward(x)
    value, grad = loss.forward(pred, target), loss.backward()
    net.backward(grad)
    opt.step()
"""

from repro.nn.classifier import MaskedMLPClassifier
from repro.nn.dueling import DuelingHead, DuelingNetwork
from repro.nn.initializers import he_init, xavier_init, zeros_init
from repro.nn.layers import (
    Layer,
    Linear,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import BCELoss, HuberLoss, MSELoss
from repro.nn.network import MLP, load_state_dict, state_dict
from repro.nn.optim import Adam, Optimizer

__all__ = [
    "Adam",
    "BCELoss",
    "DuelingHead",
    "DuelingNetwork",
    "HuberLoss",
    "Layer",
    "Linear",
    "MLP",
    "MSELoss",
    "MaskedMLPClassifier",
    "Optimizer",
    "Parameter",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "he_init",
    "load_state_dict",
    "state_dict",
    "xavier_init",
    "zeros_init",
]
