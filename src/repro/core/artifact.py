"""Saved models: the artifact a fit hands to fast selection and serving.

A production deployment trains PA-FEAT offline (hours), then serves
unseen-task selections online (milliseconds).  :func:`save_model` writes
the trained Q-network plus the minimal inference context (config,
feature-correlation matrix) as a directory of ``config.json`` +
``weights.npz`` + ``manifest.json`` (SHA-256 checksums), every file
written atomically; :func:`load_model` verifies it through the same
manifest check and ``.npz`` reader as training checkpoints
(:mod:`repro.io.checkpoint`) and rebuilds an inference-ready
:class:`~repro.core.pafeat.PAFeat`.  Formats are deliberately boring —
JSON and ``.npz``, inspectable with standard tools and free of pickle's
code-execution hazards.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from repro.core.config import (
    AgentConfig,
    ClassifierConfig,
    EnvConfig,
    ITEConfig,
    ITSConfig,
    PAFeatConfig,
)
from repro.core.pafeat import PAFeat, build_agent
from repro.errors import ArtifactError, DataValidationError, NotFittedError
from repro.io.checkpoint import (
    atomic_write_json,
    atomic_write_npz,
    manifest_entries,
    nest,
    read_npz,
    unnest,
    verify_manifest,
)
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
            "artifacts": manifest_entries(directory, ("config.json", "weights.npz")),
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


def load_model(directory: str | Path) -> PAFeat:
    """Load an inference-ready :class:`PAFeat` saved by :func:`save_model`.

    Checksums are verified when the directory has a manifest; models saved
    before manifests existed still load, and a ``weights.npz`` that does
    not decode raises :class:`~repro.errors.ArtifactError` either way.
    The returned model supports :meth:`PAFeat.select` /
    :meth:`PAFeat.select_all_unseen`; to continue training, refit instead.
    """
    directory = Path(directory)
    if not directory.exists():
        raise FileNotFoundError(f"model directory {directory} does not exist")
    verify_manifest(directory, ArtifactError)
    metadata = json.loads((directory / "config.json").read_text())
    if metadata.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported model format {metadata.get('format_version')!r}; "
            f"expected {FORMAT_VERSION}"
        )
    config = config_from_dict(metadata["config"])
    n_features = int(metadata["n_features"])

    arrays = read_npz(directory / "weights.npz", ArtifactError)
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
