"""Env-toggled runtime contracts for array shapes, dtypes and finiteness.

Static analysis (``tools/repolint``) catches whole bug classes at review
time; this module is the runtime half of the same bargain.  With the
``REPRO_CONTRACTS`` environment variable set (``1``/``true``/``on``/``yes``)
the checks fire at the FEAT↔agent and eval boundaries — the two seams
across which a wrong shape or a NaN can travel furthest before detection.
With it unset (the default, and the production configuration) every check
is a single cached boolean test, so hot paths pay nothing.

Violations raise :class:`ContractViolation` (an ``AssertionError``
subclass, so ``pytest.raises(AssertionError)`` also matches) with the
boundary name and the offending value's shape/dtype in the message.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "CONTRACTS_ENV_VAR",
    "ContractViolation",
    "check_finite",
    "check_probability_vector",
    "check_scalar_range",
    "check_state_batch",
    "contracts_enabled",
    "set_contracts_enabled",
]

CONTRACTS_ENV_VAR = "REPRO_CONTRACTS"

_TRUTHY = {"1", "true", "on", "yes"}

_enabled: bool = os.environ.get(CONTRACTS_ENV_VAR, "").strip().lower() in _TRUTHY


class ContractViolation(AssertionError):
    """An array crossed a module boundary in breach of its contract."""


def contracts_enabled() -> bool:
    """Whether boundary contracts are currently active."""
    return _enabled


def set_contracts_enabled(enabled: bool) -> bool:
    """Toggle contracts at runtime (tests/debugging); returns the old value.

    The flag is deliberately process-global configuration — like
    ``np.seterr``, it is flipped at startup or around a test, never while
    training or serving.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)  # repolint: disable=PAR602
    return previous


def _fail(boundary: str, problem: str, value: Any) -> None:
    detail = ""
    if isinstance(value, np.ndarray):
        detail = f" [shape={value.shape}, dtype={value.dtype}]"
    raise ContractViolation(f"contract '{boundary}': {problem}{detail}")


def check_finite(boundary: str, value: NDArray[np.float64]) -> NDArray[np.float64]:
    """Every element must be finite (no nan/inf)."""
    if not _enabled:
        return value
    array = np.asarray(value)
    if not np.all(np.isfinite(array)):
        bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
        _fail(boundary, f"{bad} non-finite element(s)", array)
    return value


def check_state_batch(
    boundary: str, states: NDArray[np.float64], dim: int
) -> NDArray[np.float64]:
    """A float batch (or single vector) whose trailing axis is ``dim``.

    This is the FEAT↔agent contract: encoded environment states entering
    ``q_values``/``update`` must be finite float vectors of the network's
    input dimension — a transposed batch or a task-representation of the
    wrong length fails here instead of as a garbage Q-value.
    """
    if not _enabled:
        return states
    array = np.asarray(states)
    if array.ndim not in (1, 2):
        _fail(boundary, f"expected a vector or batch, got ndim={array.ndim}", array)
    if array.shape[-1] != dim:
        _fail(boundary, f"trailing dimension {array.shape[-1]} != state dim {dim}", array)
    if not np.issubdtype(array.dtype, np.floating):
        _fail(boundary, f"expected a floating dtype, got {array.dtype}", array)
    if not np.all(np.isfinite(array)):
        _fail(boundary, "non-finite state encoding", array)
    return states


def check_probability_vector(
    boundary: str, probabilities: NDArray[np.float64], n: int | None = None
) -> NDArray[np.float64]:
    """Finite, non-negative, sums to 1 (within 1e-6); optional length check."""
    if not _enabled:
        return probabilities
    array = np.asarray(probabilities, dtype=np.float64)
    if array.ndim != 1:
        _fail(boundary, f"expected a 1-D vector, got ndim={array.ndim}", array)
    if n is not None and array.shape[0] != n:
        _fail(boundary, f"expected length {n}, got {array.shape[0]}", array)
    if not np.all(np.isfinite(array)):
        _fail(boundary, "non-finite probabilities", array)
    if np.any(array < 0.0):
        _fail(boundary, "negative probability mass", array)
    total = float(array.sum())
    if abs(total - 1.0) > 1e-6:
        _fail(boundary, f"probabilities sum to {total:.9f}, not 1", array)
    return probabilities


def check_scalar_range(
    boundary: str, value: float, low: float, high: float, tolerance: float = 1e-9
) -> float:
    """A finite scalar inside ``[low - tol, high + tol]`` (eval boundary)."""
    if not _enabled:
        return value
    scalar = float(value)
    if not np.isfinite(scalar):
        _fail(boundary, f"non-finite scalar {scalar!r}", scalar)
    if scalar < low - tolerance or scalar > high + tolerance:
        _fail(boundary, f"scalar {scalar!r} outside [{low}, {high}]", scalar)
    return value
