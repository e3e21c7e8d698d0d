"""Tests for model persistence."""

import copy
import json
import logging

import numpy as np
import pytest

from repro import load_model, save_model
from repro.core.artifact import config_from_dict, config_to_dict
from repro.core.config import PAFeatConfig
from repro.core.pafeat import PAFeat
from repro.io.checkpoint import CheckpointManager
from tests.conftest import fast_config
from tests.faults import flip_bit, truncate_file


class TestConfigRoundTrip:
    def test_default_config(self):
        config = PAFeatConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_custom_config(self):
        config = fast_config(use_its=False, seed=9)
        restored = config_from_dict(config_to_dict(config))
        assert restored == config
        assert restored.agent.hidden == config.agent.hidden

    def test_dict_is_json_compatible(self):
        text = json.dumps(config_to_dict(PAFeatConfig()))
        assert "max_feature_ratio" in text


class TestModelPersistence:
    def test_round_trip_preserves_selection(self, fitted_tiny_model, tiny_split, tmp_path):
        train, _ = tiny_split
        save_model(fitted_tiny_model, tmp_path / "model")
        restored = load_model(tmp_path / "model")
        for task in train.unseen_tasks:
            assert restored.select(task) == fitted_tiny_model.select(task)

    def test_artifact_files_exist(self, fitted_tiny_model, tmp_path):
        directory = save_model(fitted_tiny_model, tmp_path / "m")
        assert (directory / "config.json").exists()
        assert (directory / "weights.npz").exists()

    def test_loaded_model_config_matches(self, fitted_tiny_model, tmp_path):
        save_model(fitted_tiny_model, tmp_path / "m")
        restored = load_model(tmp_path / "m")
        assert restored.config == fitted_tiny_model.config
        # The loaded agent is built from the same AgentConfig as the fitted
        # one, then made greedy.
        fitted = fitted_tiny_model.inference_agent()
        loaded = restored.inference_agent()
        assert [p.value.shape for p in loaded.online.parameters()] == [
            p.value.shape for p in fitted.online.parameters()
        ]
        for name in ("gamma", "target_sync_every", "grad_clip"):
            assert getattr(loaded, name) == getattr(fitted, name)
        assert loaded.epsilon_schedule(0) == 0.0
        assert loaded.epsilon_schedule(fitted.action_count) == 0.0

    def test_config_with_removed_train_fraction_still_loads(
        self, fitted_tiny_model, tiny_split, tmp_path
    ):
        """Models saved while ``PAFeatConfig`` had ``train_fraction`` carry
        the key in ``config.json``; they load and select as when saved."""
        from repro.io.checkpoint import sha256_file
        from repro.serve.registry import ModelRegistry

        train, _ = tiny_split
        directory = save_model(fitted_tiny_model, tmp_path / "m")
        config_path = directory / "config.json"
        metadata = json.loads(config_path.read_text())
        metadata["config"]["train_fraction"] = 0.7
        config_path.write_text(json.dumps(metadata))
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["artifacts"]["config.json"] = {
            "sha256": sha256_file(config_path),
            "bytes": config_path.stat().st_size,
        }
        (directory / "manifest.json").write_text(json.dumps(manifest))

        expected = {
            task.name: fitted_tiny_model.select(task) for task in train.unseen_tasks
        }
        restored = load_model(directory)
        assert restored.config == fitted_tiny_model.config
        assert {
            task.name: restored.select(task) for task in train.unseen_tasks
        } == expected
        registry = ModelRegistry(directory)
        registry.load()
        assert registry.recent_skips() == []
        assert registry.serving()[0].select_all_unseen(train) == expected

    def test_unfitted_model_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="not fitted"):
            save_model(PAFeat(fast_config()), tmp_path / "m")

    def test_wrong_format_version_raises(self, fitted_tiny_model, tmp_path):
        directory = save_model(fitted_tiny_model, tmp_path / "m")
        metadata = json.loads((directory / "config.json").read_text())
        metadata["format_version"] = 999
        (directory / "config.json").write_text(json.dumps(metadata))
        # drop the manifest so the (correct) checksum failure doesn't mask
        # the format-version check this test is about
        (directory / "manifest.json").unlink()
        with pytest.raises(ValueError, match="unsupported model format"):
            load_model(directory)

    def test_loaded_model_cannot_further_train(self, fitted_tiny_model, tiny_split, tmp_path):
        train, _ = tiny_split
        save_model(fitted_tiny_model, tmp_path / "m")
        restored = load_model(tmp_path / "m")
        with pytest.raises(RuntimeError):
            restored.further_train(train.unseen_tasks[0], 1)

    def test_round_trip_without_feature_corr(self, fitted_tiny_model, tiny_split, tmp_path):
        train, _ = tiny_split
        model = copy.copy(fitted_tiny_model)
        model._feature_corr = None  # e.g. redundancy shaping disabled
        save_model(model, tmp_path / "m")
        restored = load_model(tmp_path / "m")
        assert restored._feature_corr is None
        assert restored.select(train.unseen_tasks[0])

    def test_manifest_catches_tampered_weights(self, fitted_tiny_model, tmp_path):
        directory = save_model(fitted_tiny_model, tmp_path / "m")
        flip_bit(directory / "weights.npz")
        with pytest.raises(ValueError, match="checksum"):
            load_model(directory)

    def test_manifest_catches_truncated_config(self, fitted_tiny_model, tmp_path):
        directory = save_model(fitted_tiny_model, tmp_path / "m")
        truncate_file(directory / "config.json", 8)
        with pytest.raises(ValueError, match="truncated"):
            load_model(directory)

    def test_pre_manifest_artifacts_still_load(self, fitted_tiny_model, tiny_split, tmp_path):
        train, _ = tiny_split
        directory = save_model(fitted_tiny_model, tmp_path / "m")
        (directory / "manifest.json").unlink()  # artifact from an older version
        restored = load_model(directory)
        for task in train.unseen_tasks:
            assert restored.select(task) == fitted_tiny_model.select(task)

    def test_nan_weights_rejected_on_load(self, fitted_tiny_model, tmp_path):
        directory = save_model(fitted_tiny_model, tmp_path / "m")
        with np.load(directory / "weights.npz") as handle:
            arrays = {name: handle[name] for name in handle.files}
        first_param = next(name for name in arrays if name.startswith("param/"))
        arrays[first_param] = np.full_like(arrays[first_param], np.nan)
        np.savez(directory / "weights.npz", **arrays)
        (directory / "manifest.json").unlink()  # isolate the finite-ness check
        with pytest.raises(ValueError, match="non-finite"):
            load_model(directory)

    def test_missing_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope")


class TestCheckpointLogging:
    def test_skipped_corrupt_checkpoint_warns_on_the_module_logger(
        self, tmp_path, caplog
    ):
        manager = CheckpointManager(tmp_path)
        manager.save(1, {"step": 1}, {"w": np.arange(64.0)})
        newest = manager.save(2, {"step": 2}, {"w": np.arange(64.0)})
        flip_bit(newest / "arrays.npz")
        with caplog.at_level(logging.WARNING, logger="repro.io.checkpoint"):
            assert manager.latest_valid().iteration == 1
        (record,) = caplog.records
        assert (record.name, record.levelname) == ("repro.io.checkpoint", "WARNING")
        assert record.getMessage().startswith(
            f"skipping corrupt checkpoint {newest}: "
        )

