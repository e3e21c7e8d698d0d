"""Typed error taxonomy: every operational failure is a :class:`ReproError`.

The exception-flow certificate (``tools/repolint`` EXC1001–1005, see
ARCHITECTURE.md §7.6) checks two boundary contracts statically:

* the serve handlers map every failure to a structured HTTP error, and
* :meth:`repro.core.pafeat.PAFeat.fit` may only leak this hierarchy (plus
  ``ValueError`` for caller argument mistakes).

Those contracts are only checkable if failures are *typed*, so raising a
bare ``Exception``/``RuntimeError`` anywhere in ``repro`` is a lint error
(EXC1004) — operational failures pick the closest class below instead.

Every class keeps its historical builtin base via multiple inheritance
(``CheckpointError`` is still a ``RuntimeError``, ``DataValidationError``
is still a ``ValueError``), so existing ``except RuntimeError`` /
``except ValueError`` call sites and tests are unaffected::

    ReproError (Exception)
    ├── DataValidationError (+ ValueError)    bad rows, schemas, parses
    │   └── repro.data.arff.ArffError
    ├── BoundsError (+ IndexError)            feature/label index overruns
    ├── ArtifactError (+ ValueError)          corrupt/mismatched model dirs
    ├── CheckpointError (+ RuntimeError)      checkpoint persistence
    │   └── CheckpointCorruptionError         truncated/bit-flipped artifact
    ├── TrainingInterrupted (+ RuntimeError)  stop request mid-fit
    ├── NotFittedError (+ RuntimeError)       inference before fit()/load
    ├── LifecycleError (+ RuntimeError)       protocol-order misuse
    ├── ServeError (+ RuntimeError)           serving stack
    │   ├── repro.serve.batcher.{BatcherClosed, BatcherStalled, QueueFull}
    │   ├── repro.serve.registry.RegistryError
    │   └── repro.serve.server.BadRequest (+ ValueError)
    └── ResilienceError (+ RuntimeError)
        └── repro.io.resilience.{DeadlineExceeded, CircuitOpen,
                                 RetriesExhausted}

This module is dependency-free (stdlib only) and sits in the ``errors``
layer at rank 0, importable from anywhere in the package.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "ArtifactError",
    "BoundsError",
    "CheckpointCorruptionError",
    "CheckpointError",
    "DataValidationError",
    "LifecycleError",
    "NotFittedError",
    "ReproError",
    "ResilienceError",
    "ServeError",
    "TrainingInterrupted",
]


class ReproError(Exception):
    """Root of the repo's typed error taxonomy."""


class DataValidationError(ReproError, ValueError):
    """Input data violates the expected schema, shape or value range."""


class BoundsError(ReproError, IndexError):
    """A feature/label/class index lies outside the structure's bounds.

    An ``IndexError`` for backward compatibility: table and task-suite
    index validation has always raised ``IndexError``.
    """


class ArtifactError(ReproError, ValueError):
    """A persisted model artifact is missing a piece, corrupt or mismatched.

    A ``ValueError`` for backward compatibility: the model registry's
    load fallback has always treated artifact problems as ``(ValueError,
    OSError, KeyError)``.
    """


class CheckpointError(ReproError, RuntimeError):
    """Base class for checkpoint persistence failures."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint artifact is missing, truncated or checksum-mismatched."""


class TrainingInterrupted(ReproError, RuntimeError):
    """Raised when a stop request ends training early.

    Carries the iteration the run stopped at and, when checkpointing was
    active, the path of the final flushed checkpoint so callers (e.g. the
    CLI's SIGTERM handler) can report where to resume from.
    """

    def __init__(self, iteration: int, checkpoint_path: Path | None = None) -> None:
        self.iteration = iteration
        self.checkpoint_path = checkpoint_path
        suffix = f"; checkpoint flushed to {checkpoint_path}" if checkpoint_path else ""
        super().__init__(f"training interrupted at iteration {iteration}{suffix}")


class NotFittedError(ReproError, RuntimeError):
    """Inference was requested from a model that has not been fitted."""


class LifecycleError(ReproError, RuntimeError):
    """A component was driven out of protocol order.

    ``backward()`` before ``forward()``, ``step()`` on a finished episode,
    starting an already-started server — state-machine misuse, as opposed
    to bad data (:class:`DataValidationError`) or bad arguments
    (``ValueError``).
    """


class ServeError(ReproError, RuntimeError):
    """Base class for serving-stack failures (batcher, registry, server)."""


class ResilienceError(ReproError, RuntimeError):
    """Base class for typed resilience failures (deadline, circuit, retry)."""
