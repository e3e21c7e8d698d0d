"""Weight initialization schemes for dense layers.

All initializers take an explicit :class:`numpy.random.Generator` so that
every network in the reproduction is seeded deterministically; there is no
global RNG state anywhere in the library.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: Signature shared by every initializer: ``(fan_in, fan_out, rng) -> weights``.
Initializer = Callable[[int, int, np.random.Generator], np.ndarray]


def he_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialization, suited to ReLU activations.

    Draws from ``N(0, sqrt(2 / fan_in))`` which preserves activation variance
    through rectified layers.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def zeros_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """All-zero initialization (used for biases)."""
    del rng  # deterministic; accepted for interface uniformity
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    return np.zeros((fan_in, fan_out))


INITIALIZERS: dict[str, Initializer] = {
    "he": he_init,
    "zeros": zeros_init,
}


def get_initializer(name: str) -> Initializer:
    """Look up an initializer by name, raising with the valid options."""
    try:
        return INITIALIZERS[name]
    except KeyError:
        valid = ", ".join(sorted(INITIALIZERS))
        raise ValueError(f"unknown initializer {name!r}; expected one of: {valid}") from None
