"""Seeded train/test split utilities."""

from __future__ import annotations

import numpy as np


def train_test_split_indices(
    n: int, train_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Randomly partition ``range(n)`` into train and test index arrays.

    The paper (Section IV-A4) uses a random 70/30 row split per run; this is
    the primitive behind :meth:`repro.data.tasks.TaskSuite.split_rows`.
    Both partitions are guaranteed non-empty.
    """
    if n < 2:
        raise ValueError(f"need at least 2 rows to split, got {n}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    permutation = rng.permutation(n)
    cut = max(1, min(n - 1, int(round(train_fraction * n))))
    return permutation[:cut], permutation[cut:]
