"""Crash-safe checkpointing: atomic artifact I/O and checkpoint retention.

Long multi-task training runs are PA-FEAT's whole value proposition — the
cost of Algorithm 1 is amortised across every future unseen task — so an
interrupted run must never lose its progress.  This module provides the
durable layer underneath :meth:`repro.core.pafeat.PAFeat.fit`:

* **Atomic writes** (:func:`atomic_write_bytes` and friends): artifacts are
  written to a temporary path in the destination directory, flushed and
  fsynced, then published with ``os.replace``.  A crash at any point leaves
  either the previous artifact or no artifact — never a half-written file.
* **Checkpoints** (:class:`CheckpointManager`): one directory per
  checkpoint (``ckpt-00000042/``) holding ``state.json`` (counters, RNG
  states, telemetry), ``arrays.npz`` (network weights, optimizer moments,
  replay transitions) and a ``manifest.json`` carrying a SHA-256 checksum
  per artifact.  The manifest is written last, so a checkpoint without a
  valid manifest is by definition incomplete and is skipped.
* **Corruption detection**: :meth:`CheckpointManager.latest_valid` walks
  checkpoints newest-first, verifies checksums, and falls back to the
  newest checkpoint that passes — truncated or bit-flipped artifacts are
  reported (``logging`` + :attr:`CheckpointManager.skipped`) and ignored.
  The manifest check (:func:`verify_manifest`) and the ``.npz`` reader
  (:func:`read_npz`) raise the error type their caller passes, so saved
  models (:mod:`repro.core.artifact`) are verified the same way.
* **Retention**: a keep-last-K policy prunes old checkpoints after each
  successful save.

The manager is payload-agnostic: it stores a JSON-able ``meta`` dict plus a
``{name: ndarray}`` array mapping.  The training stack's
``capture_state()`` / ``restore_state()`` methods produce and consume that
payload (see :meth:`repro.core.feat.FEATTrainer.capture_state`); each
component's arrays sit under its own prefix (``trainer/agent/online/...``),
added by :func:`nest` on capture and stripped by :func:`unnest` on restore,
beside the RNG round trip (:func:`rng_state`).
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Canonical homes are repro.errors (the typed taxonomy); re-exported here
# (``as`` keeps the re-export explicit under --no-implicit-reexport)
# because checkpointing is where callers have always imported them from.
from repro.errors import CheckpointCorruptionError as CheckpointCorruptionError
from repro.errors import CheckpointError as CheckpointError
from repro.errors import ReproError
from repro.errors import TrainingInterrupted as TrainingInterrupted

_LOG = logging.getLogger(__name__)

CHECKPOINT_FORMAT_VERSION = 1
STATE_NAME = "state.json"
ARRAYS_NAME = "arrays.npz"
MANIFEST_NAME = "manifest.json"

_CKPT_PATTERN = re.compile(r"^ckpt-(\d{8})$")


# ---------------------------------------------------------------------------
# RNG state round trips
# ---------------------------------------------------------------------------

def rng_state(rng: np.random.Generator) -> dict:
    """A generator's bit-generator state as a JSON-able dict."""
    return rng.bit_generator.state


def set_rng_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a state captured by :func:`rng_state` (exact stream resume)."""
    if state.get("bit_generator") != type(rng.bit_generator).__name__:
        raise CheckpointError(
            f"RNG mismatch: checkpoint holds {state.get('bit_generator')!r} state "
            f"but the generator is {type(rng.bit_generator).__name__!r}"
        )
    rng.bit_generator.state = state


# ---------------------------------------------------------------------------
# Array namespaces
# ---------------------------------------------------------------------------

def nest(prefix: str, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``arrays`` with every name put under ``prefix``, in the same order."""
    return {f"{prefix}{name}": value for name, value in arrays.items()}


def unnest(prefix: str, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The arrays named under ``prefix``, with the prefix stripped off."""
    return {
        name[len(prefix):]: value
        for name, value in arrays.items()
        if name.startswith(prefix)
    }


# ---------------------------------------------------------------------------
# Atomic artifact I/O
# ---------------------------------------------------------------------------

def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fsync_directory(directory: str | Path) -> None:
    """Flush a directory entry so a rename survives power loss (POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - some filesystems refuse
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically: temp file → fsync → replace.

    A crash before the final ``os.replace`` leaves the previous content of
    ``path`` (or nothing) in place; readers never observe a partial write.
    """
    path = Path(path)
    fd, temp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)
    return path


def atomic_write_json(path: str | Path, obj: object) -> Path:
    return atomic_write_bytes(path, json.dumps(obj, indent=2).encode("utf-8"))


def atomic_write_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> Path:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return atomic_write_bytes(path, buffer.getvalue())


# ---------------------------------------------------------------------------
# Verified artifact reads (checkpoints and saved models)
# ---------------------------------------------------------------------------

def manifest_entries(directory: Path, names: tuple[str, ...]) -> dict:
    """The manifest's ``artifacts`` entry: each named file's SHA-256 and size."""
    return {
        name: {
            "sha256": sha256_file(directory / name),
            "bytes": (directory / name).stat().st_size,
        }
        for name in names
    }


def verify_manifest(directory: Path, error: type[ReproError]) -> dict | None:
    """``directory``'s manifest, once every artifact it lists is present
    with the listed size and SHA-256; ``None`` when it has no manifest.

    The first problem (unreadable manifest, missing artifact, size or
    checksum mismatch) raises ``error`` naming the directory and file.
    """
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise error(f"{directory.name}: unreadable manifest ({exc})") from exc
    for name, expected in manifest.get("artifacts", {}).items():
        artifact = directory / name
        if not artifact.exists():
            raise error(f"{directory.name}: missing {name}")
        size = artifact.stat().st_size
        if size != expected.get("bytes"):
            raise error(
                f"{directory.name}: {name} is {size} bytes, "
                f"manifest expects {expected.get('bytes')} (truncated?)"
            )
        digest = sha256_file(artifact)
        if digest != expected.get("sha256"):
            raise error(
                f"{directory.name}: {name} checksum mismatch "
                f"({digest[:12]}… != {str(expected.get('sha256'))[:12]}…)"
            )
    return manifest


def read_npz(path: Path, error: type[ReproError]) -> dict[str, np.ndarray]:
    """Every array of the ``.npz`` at ``path``, by name; a file that is
    missing or does not decode (truncated, not a zip) raises ``error``."""
    try:
        with np.load(path) as handle:
            return {key: handle[key] for key in handle.files}
    except Exception as exc:  # any decode failure ⇒ corrupt artifact
        raise error(
            f"{path.parent.name}: {path.name} failed to decode ({exc})"
        ) from exc


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    """A validated, fully loaded checkpoint."""

    path: Path
    iteration: int
    meta: dict
    arrays: dict[str, np.ndarray] = field(repr=False)


class CheckpointManager:
    """Durable store of training checkpoints under one directory.

    Each checkpoint is staged in a hidden ``.staging-*`` directory, written
    artifact-by-artifact with atomic file writes, then published with a
    single directory rename — so the ``ckpt-*`` namespace only ever
    contains checkpoints whose every artifact hit the disk, and a crash at
    any point during :meth:`save` is invisible to :meth:`latest_valid`.
    """

    def __init__(self, directory: str | Path, keep_last: int = 3) -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last
        #: corrupt/incomplete checkpoints seen by :meth:`latest_valid`,
        #: as ``(path, reason)`` pairs — surfaced for observability.
        self.skipped: list[tuple[Path, str]] = []

    # -- enumeration ----------------------------------------------------
    def checkpoint_paths(self) -> list[Path]:
        """Published checkpoint directories, oldest → newest."""
        found = []
        for entry in self.directory.iterdir():
            match = _CKPT_PATTERN.match(entry.name)
            if match and entry.is_dir():
                found.append((int(match.group(1)), entry))
        return [path for _, path in sorted(found)]

    # -- write ----------------------------------------------------------
    def save(self, iteration: int, meta: dict, arrays: dict[str, np.ndarray]) -> Path:
        """Publish one checkpoint atomically and prune old ones."""
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        name = f"ckpt-{iteration:08d}"
        staging = Path(
            tempfile.mkdtemp(prefix=f".staging-{name}-", dir=self.directory)
        )
        try:
            state_doc = {
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "iteration": iteration,
                "meta": meta,
            }
            atomic_write_json(staging / STATE_NAME, state_doc)
            atomic_write_npz(staging / ARRAYS_NAME, arrays)
            manifest = {
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "iteration": iteration,
                "artifacts": manifest_entries(staging, (STATE_NAME, ARRAYS_NAME)),
            }
            atomic_write_json(staging / MANIFEST_NAME, manifest)
            final = self.directory / name
            if final.exists():
                # Re-saving an iteration (e.g. resuming over a corrupt
                # checkpoint): retire the old directory out of the visible
                # namespace first, then publish.
                retired = Path(
                    tempfile.mkdtemp(prefix=f".retired-{name}-", dir=self.directory)
                )
                os.replace(final, retired / name)
                shutil.rmtree(retired, ignore_errors=True)
            os.replace(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        fsync_directory(self.directory)
        self._prune()
        return final

    def _prune(self) -> None:
        """Keep the newest ``keep_last`` checkpoints; drop stale staging dirs."""
        paths = self.checkpoint_paths()
        for stale in paths[: -self.keep_last]:
            shutil.rmtree(stale, ignore_errors=True)
        for entry in self.directory.iterdir():
            if entry.name.startswith((".staging-", ".retired-")) and entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)

    # -- read -----------------------------------------------------------
    def validate(self, path: str | Path) -> dict:
        """Check one checkpoint's manifest and checksums; return the manifest.

        Raises :class:`CheckpointCorruptionError` describing the first
        problem found (missing or unreadable manifest, missing artifact,
        size mismatch, checksum mismatch, unsupported format version).
        """
        path = Path(path)
        manifest = verify_manifest(path, CheckpointCorruptionError)
        if manifest is None:
            raise CheckpointCorruptionError(
                f"{path.name}: missing {MANIFEST_NAME} (incomplete checkpoint)"
            )
        if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointCorruptionError(
                f"{path.name}: unsupported checkpoint format "
                f"{manifest.get('format_version')!r} "
                f"(expected {CHECKPOINT_FORMAT_VERSION})"
            )
        return manifest

    def load(self, path: str | Path) -> Checkpoint:
        """Validate and fully load one checkpoint."""
        path = Path(path)
        manifest = self.validate(path)
        try:
            state_doc = json.loads((path / STATE_NAME).read_text())
        except Exception as exc:  # any decode failure ⇒ corrupt artifact
            raise CheckpointCorruptionError(
                f"{path.name}: {STATE_NAME} failed to decode ({exc})"
            ) from exc
        return Checkpoint(
            path=path,
            iteration=int(manifest["iteration"]),
            meta=state_doc.get("meta", {}),
            arrays=read_npz(path / ARRAYS_NAME, CheckpointCorruptionError),
        )

    def latest_valid(self) -> Checkpoint | None:
        """The newest checkpoint that passes validation, or ``None``.

        Corrupt or incomplete checkpoints are logged, recorded in
        :attr:`skipped` and passed over — resume degrades gracefully to the
        most recent state that is actually trustworthy.
        """
        for path in reversed(self.checkpoint_paths()):
            try:
                return self.load(path)
            except CheckpointError as exc:
                _LOG.warning("skipping corrupt checkpoint %s: %s", path, exc)
                self.skipped.append((path, str(exc)))
        return None
