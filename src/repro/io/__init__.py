"""Durable I/O and resilience primitives, below every training layer.

Training checkpoints, graceful shutdown and the serving stack's
resilience primitives.  The package imports nothing above ``analysis``,
``errors`` and ``obs`` (rank 0 in the layer contract), so ``rl`` and
``core`` import it at module level.  Saved models live above ``core`` in
:mod:`repro.core.artifact` (``repro.save_model``/``repro.load_model``),
task-suite CSVs in :mod:`repro.data.suite_csv`.

* :class:`CheckpointManager` and the atomic-write helpers
  (:mod:`repro.io.checkpoint`) — durable, corruption-detecting training
  checkpoints behind ``PAFeat.fit(checkpoint_dir=..., resume=True)``,
  plus the manifest check and ``.npz`` reader saved models share.
* :class:`GracefulShutdown` (:mod:`repro.io.lifecycle`) — the
  SIGINT/SIGTERM discipline shared by ``repro train`` and ``repro serve``.
* :mod:`repro.io.resilience` — the shared resilience primitives
  (:class:`Deadline`, :class:`Retry`, :class:`CircuitBreaker`,
  :class:`TokenBucket`) that the serving stack composes into admission
  control, request deadlines and circuit-broken model loads.
"""

from repro.io.checkpoint import (
    Checkpoint,
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointManager,
    TrainingInterrupted,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
)
from repro.io.lifecycle import GracefulShutdown
from repro.io.resilience import (
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    ResilienceError,
    RetriesExhausted,
    Retry,
    TokenBucket,
)

__all__ = [
    "Checkpoint",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointManager",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "DeadlineExceeded",
    "GracefulShutdown",
    "ResilienceError",
    "RetriesExhausted",
    "Retry",
    "TokenBucket",
    "TrainingInterrupted",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_npz",
]
