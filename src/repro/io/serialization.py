"""Model and dataset (de)serialization.

Formats are deliberately boring: JSON for metadata and configs, ``.npz``
for arrays, CSV for tables — all inspectable with standard tools and free
of pickle's code-execution hazards.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from repro.errors import ArtifactError, DataValidationError, NotFittedError
from repro.core.config import (
    AgentConfig,
    ClassifierConfig,
    EnvConfig,
    ITEConfig,
    ITSConfig,
    PAFeatConfig,
)
from repro.io.checkpoint import (
    atomic_write_json,
    atomic_write_npz,
    nest,
    sha256_file,
    unnest,
)
from repro.core.pafeat import PAFeat, build_agent
from repro.data.table import StructuredTable
from repro.data.tasks import TaskSuite
from repro.nn.network import load_state_dict
from repro.rl.schedules import ConstantSchedule

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Config round trips
# ---------------------------------------------------------------------------

def config_to_dict(config: PAFeatConfig) -> dict:
    """Serialise a config tree to plain JSON-compatible types."""
    data = asdict(config)
    data["agent"]["hidden"] = list(config.agent.hidden)
    data["classifier"]["hidden"] = list(config.classifier.hidden)
    return data


def config_from_dict(data: dict) -> PAFeatConfig:
    """Rebuild a :class:`PAFeatConfig` from :func:`config_to_dict` output.

    A key this release does not know — at the top level or inside a
    section — raises :class:`~repro.errors.DataValidationError` naming it
    and its section.
    """
    data = dict(data)
    # Configs saved before ``train_fraction`` was removed carry the key; no
    # code ever read it.
    data.pop("train_fraction", None)
    _check_keys(data, PAFeatConfig, "the top level")
    sections = {name: dict(data.pop(name)) for name in _SECTIONS}
    for name, section in sections.items():
        _check_keys(section, _SECTIONS[name], f"section {name!r}")
    for name in ("agent", "classifier"):
        sections[name]["hidden"] = tuple(sections[name]["hidden"])
    return PAFeatConfig(
        **{name: _SECTIONS[name](**section) for name, section in sections.items()},
        **data,
    )


_SECTIONS: dict[str, type] = {
    "env": EnvConfig,
    "agent": AgentConfig,
    "its": ITSConfig,
    "ite": ITEConfig,
    "classifier": ClassifierConfig,
}


def _check_keys(data: dict, config_type: type, where: str) -> None:
    unknown = sorted(set(data) - {field.name for field in fields(config_type)})
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise DataValidationError(f"unknown config key {names} in {where} of config.json")


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def save_model(model: PAFeat, directory: str | Path) -> Path:
    """Persist a fitted model's inference artifact to ``directory``.

    Writes ``config.json`` (format version, config, feature count),
    ``weights.npz`` (the online Q-network parameters plus the
    feature-correlation matrix used by the state encoding) and
    ``manifest.json`` (SHA-256 checksum per artifact).  Every file is
    written atomically (temp file → fsync → rename), so a crash mid-save
    can never leave a half-written artifact where a previous good one
    stood; weights are validated to be finite before anything is written.
    """
    agent = model.inference_agent()
    if model._n_features is None:
        raise NotFittedError("model has no feature-space metadata; fit() it first")
    snapshot = agent.save_policy()
    _validate_finite_weights(snapshot, context="refusing to save")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    metadata = {
        "format_version": FORMAT_VERSION,
        "n_features": model._n_features,
        "config": config_to_dict(model.config),
    }
    atomic_write_json(directory / "config.json", metadata)

    arrays = nest("param/", snapshot)
    if model._feature_corr is not None:
        arrays["feature_corr"] = model._feature_corr
    atomic_write_npz(directory / "weights.npz", arrays)
    atomic_write_json(
        directory / "manifest.json",
        {
            "format_version": FORMAT_VERSION,
            "artifacts": {
                name: {
                    "sha256": sha256_file(directory / name),
                    "bytes": (directory / name).stat().st_size,
                }
                for name in ("config.json", "weights.npz")
            },
        },
    )
    return directory


def _validate_finite_weights(snapshot: dict, context: str) -> None:
    """Reject NaN/Inf network parameters — a poisoned artifact is worse
    than no artifact, because it serves garbage selections silently."""
    bad = [
        name
        for name, value in snapshot.items()
        if not np.all(np.isfinite(np.asarray(value)))
    ]
    if bad:
        raise ArtifactError(
            f"{context}: non-finite (NaN/Inf) values in weights {sorted(bad)}"
        )


def _verify_model_manifest(directory: Path) -> None:
    """Check artifact checksums when a manifest is present (new artifacts).

    Pre-manifest model directories still load — corruption detection is
    then limited to what the decoders catch.
    """
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        return
    manifest = json.loads(manifest_path.read_text())
    for name, expected in manifest.get("artifacts", {}).items():
        artifact = directory / name
        if not artifact.exists():
            raise ArtifactError(f"model artifact {name} is missing from {directory}")
        size = artifact.stat().st_size
        if size != expected.get("bytes"):
            raise ArtifactError(
                f"model artifact {name} is {size} bytes, manifest expects "
                f"{expected.get('bytes')} (truncated write?)"
            )
        digest = sha256_file(artifact)
        if digest != expected.get("sha256"):
            raise ArtifactError(
                f"model artifact {name} failed its checksum "
                f"({digest[:12]}… != {str(expected.get('sha256'))[:12]}…); "
                f"the file is corrupt — restore it from a backup or retrain"
            )


def load_model(directory: str | Path) -> PAFeat:
    """Load an inference-ready :class:`PAFeat` saved by :func:`save_model`.

    The returned model supports :meth:`PAFeat.select` /
    :meth:`PAFeat.select_all_unseen`; to continue training, refit instead.
    """
    directory = Path(directory)
    if not directory.exists():
        raise FileNotFoundError(f"model directory {directory} does not exist")
    _verify_model_manifest(directory)
    metadata = json.loads((directory / "config.json").read_text())
    if metadata.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported model format {metadata.get('format_version')!r}; "
            f"expected {FORMAT_VERSION}"
        )
    config = config_from_dict(metadata["config"])
    n_features = int(metadata["n_features"])

    with np.load(directory / "weights.npz") as handle:
        arrays = {key: handle[key] for key in handle.files}
    snapshot = unnest("param/", arrays)
    _validate_finite_weights(snapshot, context="refusing to load")

    agent = build_agent(config.agent, n_features, np.random.default_rng(config.seed))
    agent.epsilon_schedule = ConstantSchedule(0.0)  # inference is greedy
    load_state_dict(agent.online, snapshot)
    agent.sync_target()

    model = PAFeat(config)
    model._n_features = n_features
    model._feature_corr = arrays.get("feature_corr")
    model._loaded_agent = agent
    return model


# ---------------------------------------------------------------------------
# Dataset persistence
# ---------------------------------------------------------------------------

def save_suite_csv(suite: TaskSuite, directory: str | Path) -> Path:
    """Write a suite as ``data.csv`` + ``suite.json`` (task partition)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table = suite.table
    with open(directory / "data.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.feature_names + table.label_names)
        for i in range(table.n_rows):
            writer.writerow(
                [f"{v:.10g}" for v in table.features[i]]
                + [int(v) for v in table.labels[i]]
            )
    sidecar = {
        "name": suite.name,
        "n_features": table.n_features,
        "seen": [task.label_index for task in suite.seen_tasks],
        "unseen": [task.label_index for task in suite.unseen_tasks],
        "ground_truth": {
            str(task.label_index): list(task.ground_truth_features)
            for task in suite.all_tasks()
            if task.ground_truth_features is not None
        },
    }
    (directory / "suite.json").write_text(json.dumps(sidecar, indent=2))
    return directory


def _first_non_numeric_row(rows: list[list[str]], n_features: int) -> int:
    """Line number (1-based, header included) of the first unparsable row."""
    for line_number, row in enumerate(rows, start=2):
        try:
            [float(v) for v in row[:n_features]]
            [int(v) for v in row[n_features:]]
        except ValueError:
            return line_number
    return 2


def load_suite_csv(directory: str | Path) -> TaskSuite:
    """Load a suite written by :func:`save_suite_csv`."""
    directory = Path(directory)
    sidecar = json.loads((directory / "suite.json").read_text())
    n_features = int(sidecar["n_features"])

    with open(directory / "data.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    if len(header) <= n_features:
        raise DataValidationError(
            f"CSV has {len(header)} columns but the sidecar declares "
            f"{n_features} features plus at least one label"
        )
    # Validate per-row shape up front: ragged or truncated exports must be
    # reported by row, not surface later as an opaque IndexError/float()
    # failure.  Data rows start at line 2 (line 1 is the header).
    for line_number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataValidationError(
                f"data.csv row at line {line_number} has {len(row)} columns, "
                f"expected {len(header)} (ragged or truncated file?)"
            )
    try:
        features = np.array(
            [[float(v) for v in row[:n_features]] for row in rows], dtype=np.float64
        )
        labels = np.array(
            [[int(v) for v in row[n_features:]] for row in rows], dtype=np.int64
        )
    except ValueError as exc:
        offending = _first_non_numeric_row(rows, n_features)
        raise DataValidationError(
            f"data.csv row at line {offending} contains a non-numeric value: {exc}"
        ) from exc
    table = StructuredTable(
        features,
        labels,
        feature_names=header[:n_features],
        label_names=header[n_features:],
    )
    ground_truth = {
        int(key): tuple(values)
        for key, values in sidecar.get("ground_truth", {}).items()
    }
    return TaskSuite(
        sidecar["name"],
        table,
        seen_label_indices=sidecar["seen"],
        unseen_label_indices=sidecar["unseen"],
        ground_truth=ground_truth,
    )
