"""Versioned model registry: load, verify and hot-swap trained agents.

A serving process must (a) come up on the newest model artifact that is
actually trustworthy, (b) pick up newly published versions without a
restart, and (c) never crash — or silently serve garbage — because the
newest artifact is corrupt.  :class:`ModelRegistry` provides all three on
top of the existing artifact format: every version is a
:func:`repro.save_model` directory whose ``manifest.json`` carries
SHA-256 checksums written by the :mod:`repro.io.checkpoint` atomic-write
helpers, and :func:`repro.load_model` verifies those checksums before
any weight is deserialised (:mod:`repro.core.artifact`).

**Layouts.**  The registry root is either

* a single model artifact (``config.json`` at the root) — one version,
  named after the directory; or
* a directory of version subdirectories, each a model artifact — versions
  are ordered by name (publish as ``v0001``, ``v0002``, … or any
  lexicographically increasing scheme), newest last.

**Corruption fallback.**  :meth:`load` walks versions newest-first and
serves the first one that passes verification; failures are recorded in
:meth:`recent_skips` (``(path, reason)`` pairs) and logged, mirroring
:meth:`repro.io.checkpoint.CheckpointManager.latest_valid`.  A failed
version is remembered with its files' names, sizes and modification
times (:func:`artifact_signature`): until one of them changes, a rescan
counts it in :meth:`skip_count` again but neither re-reads it nor lists
it a second time.

**Hot swap.**  :meth:`refresh` rescans the root; when a version newer than
the current one validates, the served model is swapped atomically: the
``(model, version)`` pair is published as one tuple under a short-held
lock, so a reader can never observe the new model with the old version
label (or vice versa).  In-flight batches keep the agent object they
started with.  A corrupt newer version is skipped and the current model
keeps serving.

**Thread safety.**  The server offloads :meth:`refresh` to an executor
thread so model-file I/O never blocks the event loop; every cross-context
field (the current pair, the skip history) is therefore guarded by the
swap lock — a :class:`repro.analysis.tsan.TrackedLock`, so chaos runs
with ``REPRO_TSAN=1`` verify the locking dynamically.  The lock is held
only for attribute rebinds and list snapshots, never across file I/O.
The representation cache is intentionally *not* locked: it is touched
only by the event-loop thread (repolint's ASYNC902 checks this).

**Representation cache.**  Selection requests arrive as raw task data
(features + labels); the |Pearson| task representation is the only
preprocessing, and repeat requests for the same task are common in
production (retries, A/B probes, shared dashboards).  A bounded LRU keyed
on a SHA-256 fingerprint of the task bytes makes those repeats skip the
recompute; hits and misses feed the ``/metrics`` cache-hit-rate gauge.
"""

from __future__ import annotations

import hashlib
import logging
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis import tsan
from repro.analysis.tsan import TrackedLock
from repro.core.artifact import load_model
from repro.core.pafeat import PAFeat
from repro.data.stats import pearson_representation
from repro.errors import ServeError

_LOG = logging.getLogger(__name__)

#: Cap on the retained skip records (oldest evicted first).
MAX_SKIP_HISTORY = 50


class RegistryError(ServeError):
    """No servable model version could be loaded from the registry root."""


@dataclass(frozen=True)
class ModelVersion:
    """One successfully loaded, checksum-verified model version."""

    name: str
    path: Path
    n_features: int


#: ``(name, size, mtime_ns)`` of each file of a version directory.
FileSignature = tuple[tuple[str, int, int], ...]


def artifact_signature(path: Path) -> FileSignature | None:
    """What a republish of a version directory changes: the name, size and
    ``mtime_ns`` of each of its files, in name order.

    Read from directory metadata alone.  ``None`` when the directory
    cannot be listed: such a path matches no signature, so it is retried.
    """
    try:
        stats = [(entry.name, entry.stat()) for entry in path.iterdir()]
    except OSError:
        return None
    return tuple(
        sorted((name, stat.st_size, stat.st_mtime_ns) for name, stat in stats)
    )


def task_fingerprint(features: np.ndarray, labels: np.ndarray) -> str:
    """Content hash of a task's data — the representation-cache key.

    Covers values, dtypes and shapes of both arrays, so any change in the
    task produces a different key.
    """
    features = np.ascontiguousarray(features)
    labels = np.ascontiguousarray(labels)
    digest = hashlib.sha256()
    for array in (features, labels):
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


class ModelRegistry:
    """Versioned store of inference artifacts under one root directory."""

    def __init__(
        self, root: str | Path, representation_cache_size: int = 256
    ) -> None:
        if representation_cache_size < 1:
            raise ValueError(
                f"representation_cache_size must be >= 1, "
                f"got {representation_cache_size}"
            )
        self.root = Path(root)
        if not self.root.is_dir():
            raise FileNotFoundError(f"registry root {self.root} is not a directory")
        # Guards every field shared between the event loop and the
        # executor thread running refresh(); held for rebinds/snapshots
        # only, never across file I/O.
        self._swap_lock = TrackedLock("ModelRegistry.swap")
        # The served (model, version) pair, published atomically as one
        # tuple so readers never see a torn swap.
        self._current: tuple[PAFeat, ModelVersion] | None = None
        # Corrupt/unloadable versions seen by load()/refresh() — bounded
        # to MAX_SKIP_HISTORY so a long-lived server polling a broken
        # publisher cannot grow it without limit — plus the lifetime
        # count (never trimmed) whose delta feeds the circuit breaker.
        self._skips: list[tuple[Path, str]] = []
        self._skips_total = 0
        # The file signature (artifact_signature) each failed version had
        # when it failed: while it still has it, a rescan counts the
        # version as skipped without re-reading it or listing it again.
        self._failed: dict[Path, FileSignature | None] = {}
        self._cache_capacity = representation_cache_size
        self._representations: OrderedDict[str, np.ndarray] = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0

    # -- discovery ------------------------------------------------------
    def candidate_versions(self) -> list[tuple[str, Path]]:
        """``(name, path)`` of every potential version, oldest → newest."""
        if (self.root / "config.json").is_file():
            return [(self.root.name or "model", self.root)]
        found = [
            (entry.name, entry)
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / "config.json").is_file()
        ]
        return sorted(found)

    # -- loading / hot swap --------------------------------------------
    def load(self) -> ModelVersion:
        """Load the newest version that verifies; raise when none does.

        Walks newest-first; a version whose manifest, checksums or weights
        fail validation is recorded in :meth:`recent_skips` and passed over.
        """
        candidates = self.candidate_versions()
        if not candidates:
            raise RegistryError(
                f"no model versions under {self.root} (expected a saved "
                f"model artifact or a directory of artifact subdirectories)"
            )
        for name, path in reversed(candidates):
            loaded = self._try_load(name, path)
            if loaded is not None:
                return loaded
        reasons = "; ".join(
            f"{path.name}: {reason}" for path, reason in self.recent_skips()
        )
        raise RegistryError(
            f"no valid model version under {self.root} ({reasons})"
        )

    def refresh(self) -> bool:
        """Hot-swap to a newer valid version when one exists.

        Returns True when the served model changed.  Corrupt newer
        versions are skipped (recorded in :meth:`recent_skips`); the current
        model keeps serving.  With no model loaded yet this behaves like
        :meth:`load` but returns the swap flag instead of raising.
        """
        with self._swap_lock:
            tsan.note(self, "_current")
            current = self._current[1].name if self._current is not None else None
        for name, path in reversed(self.candidate_versions()):
            if current is not None and name <= current:
                break
            if self._try_load(name, path) is not None:
                return True
        return False

    def _try_load(self, name: str, path: Path) -> ModelVersion | None:
        signature = artifact_signature(path)
        with self._swap_lock:
            tsan.note(self, "_failed")
            known_bad = signature is not None and self._failed.get(path) == signature
            if known_bad:
                # Still a skip: the reload breaker counts a corrupt
                # publish for as long as it stays up.
                tsan.note(self, "_skips_total", write=True)
                self._skips_total += 1
        if known_bad:
            return None
        try:
            model = load_model(path)
        except (ValueError, OSError, KeyError) as exc:
            _LOG.warning("skipping model version %s: %s", path, exc)
            with self._swap_lock:
                tsan.note(self, "_skips", write=True)
                tsan.note(self, "_skips_total", write=True)
                tsan.note(self, "_failed", write=True)
                self._skips.append((path, str(exc)))
                self._skips_total += 1
                del self._skips[:-MAX_SKIP_HISTORY]
                self._failed[path] = signature
            return None
        assert model._n_features is not None
        version = ModelVersion(
            name=name, path=path, n_features=int(model._n_features)
        )
        with self._swap_lock:
            tsan.note(self, "_current", write=True)
            self._current = (model, version)
        return version

    @property
    def loaded(self) -> bool:
        """Whether a model version is currently being served."""
        with self._swap_lock:
            tsan.note(self, "_current")
            return self._current is not None

    @property
    def model(self) -> PAFeat:
        """The currently served model; :meth:`load` must have succeeded."""
        with self._swap_lock:
            tsan.note(self, "_current")
            current = self._current
        if current is None:
            raise RegistryError("no model loaded; call load() first")
        return current[0]

    @property
    def version(self) -> ModelVersion:
        with self._swap_lock:
            tsan.note(self, "_current")
            current = self._current
        if current is None:
            raise RegistryError("no model loaded; call load() first")
        return current[1]

    def serving(self) -> tuple[PAFeat, ModelVersion]:
        """One consistent ``(model, version)`` snapshot — the pair a
        response should be computed *and* labeled with."""
        with self._swap_lock:
            tsan.note(self, "_current")
            current = self._current
        if current is None:
            raise RegistryError("no model loaded; call load() first")
        return current

    # -- skip history ---------------------------------------------------
    def recent_skips(self) -> list[tuple[Path, str]]:
        """Copy of the bounded ``(path, reason)`` skip history."""
        with self._swap_lock:
            tsan.note(self, "_skips")
            return list(self._skips)

    def skip_count(self) -> int:
        """Lifetime skip count, read under the swap lock."""
        with self._swap_lock:
            tsan.note(self, "_skips_total")
            return self._skips_total

    # -- representation cache ------------------------------------------
    def representation(
        self, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """The task's |Pearson| representation, LRU-cached by fingerprint."""
        key = task_fingerprint(features, labels)
        cached = self._representations.get(key)
        if cached is not None:
            self._cache_hits += 1
            self._representations.move_to_end(key)
            return cached
        self._cache_misses += 1
        value = pearson_representation(features, labels)
        self._representations[key] = value
        while len(self._representations) > self._cache_capacity:
            self._representations.popitem(last=False)
        return value

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss counters for the ``/metrics`` cache-hit-rate gauge."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": len(self._representations),
            "capacity": self._cache_capacity,
        }
