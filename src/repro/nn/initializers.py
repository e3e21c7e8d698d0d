"""Weight initialization for dense layers.

The initializer takes an explicit :class:`numpy.random.Generator` so that
every network in the reproduction is seeded deterministically; there is no
global RNG state anywhere in the library.
"""

from __future__ import annotations

import math

import numpy as np


def he_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialization, suited to ReLU activations.

    Draws from ``N(0, sqrt(2 / fan_in))`` which preserves activation variance
    through rectified layers.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=(fan_in, fan_out))

