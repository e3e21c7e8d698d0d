"""Model registry: version discovery, corruption fallback, hot swap, caching."""

from __future__ import annotations

import json
import logging
import shutil

import numpy as np
import pytest

from repro import load_model, save_model
from repro.errors import ArtifactError, DataValidationError
from repro.io.checkpoint import sha256_file
from repro.serve import ModelRegistry, RegistryError, task_fingerprint


@pytest.fixture(scope="module")
def model_artifact(fitted_tiny_model, tmp_path_factory):
    """One saved tiny-model artifact, copied per test as needed."""
    root = tmp_path_factory.mktemp("artifact")
    return save_model(fitted_tiny_model, root / "model")


def add_config_key(artifact_dir, key: str, value) -> None:
    """Give ``config.json`` a key this release does not know, with a valid
    manifest: a version written by a newer release."""
    config_path = artifact_dir / "config.json"
    metadata = json.loads(config_path.read_text())
    metadata["config"][key] = value
    config_path.write_text(json.dumps(metadata))
    manifest_path = artifact_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["artifacts"]["config.json"] = {
        "sha256": sha256_file(config_path),
        "bytes": config_path.stat().st_size,
    }
    manifest_path.write_text(json.dumps(manifest))


def corrupt_weights(artifact_dir) -> None:
    """Flip bytes in the weights so the manifest checksum fails."""
    weights = artifact_dir / "weights.npz"
    raw = bytearray(weights.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    weights.write_bytes(bytes(raw))


class TestDiscoveryAndLoad:
    def test_single_artifact_root(self, model_artifact):
        registry = ModelRegistry(model_artifact)
        version = registry.load()
        assert version.name == "model"
        assert version.path == model_artifact
        assert version.n_features == 12  # TINY_SPEC feature count
        assert registry.version is version
        assert registry.model.select is not None
        assert registry.recent_skips() == []

    def test_versioned_root_serves_newest(self, model_artifact, tmp_path):
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        shutil.copytree(model_artifact, root / "v0002")
        registry = ModelRegistry(root)
        assert registry.load().name == "v0002"

    def test_corrupt_newest_falls_back(self, model_artifact, tmp_path):
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        shutil.copytree(model_artifact, root / "v0002")
        corrupt_weights(root / "v0002")
        registry = ModelRegistry(root)
        assert registry.load().name == "v0001"
        assert [path.name for path, _ in registry.recent_skips()] == ["v0002"]

    def test_skipped_version_warns_on_the_module_logger(
        self, model_artifact, tmp_path, caplog
    ):
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        shutil.copytree(model_artifact, root / "v0002")
        corrupt_weights(root / "v0002")
        with caplog.at_level(logging.WARNING, logger="repro.serve.registry"):
            assert ModelRegistry(root).load().name == "v0001"
        (record,) = caplog.records
        assert (record.name, record.levelname) == ("repro.serve.registry", "WARNING")
        assert record.getMessage().startswith(
            f"skipping model version {root / 'v0002'}: "
        )

    def test_unknown_config_key_skips_the_version(self, model_artifact, tmp_path):
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        shutil.copytree(model_artifact, root / "v0002")
        add_config_key(root / "v0002", "future_knob", 1)
        with pytest.raises(DataValidationError, match="future_knob"):
            load_model(root / "v0002")

        registry = ModelRegistry(root)
        assert registry.load().name == "v0001"
        [(path, reason)] = registry.recent_skips()
        assert path.name == "v0002" and "future_knob" in reason

        # A newer release's version published while v0001 serves.
        shutil.copytree(model_artifact, root / "v0003")
        add_config_key(root / "v0003", "future_knob", 1)
        assert registry.refresh() is False
        assert registry.version.name == "v0001"
        skips = registry.recent_skips()
        assert {path.name for path, _ in skips} == {"v0002", "v0003"}
        assert all("future_knob" in reason for _, reason in skips)

    def test_undecodable_weights_without_manifest_fall_back(
        self, model_artifact, tmp_path
    ):
        """A model saved before manifests existed has no checksums to fail,
        so a truncated ``weights.npz`` reaches the decoder; the registry
        still skips that version and serves the previous one."""
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        shutil.copytree(model_artifact, root / "v0002")
        (root / "v0002" / "manifest.json").unlink()
        weights = root / "v0002" / "weights.npz"
        weights.write_bytes(weights.read_bytes()[: weights.stat().st_size // 2])
        with pytest.raises(ArtifactError, match="weights.npz failed to decode"):
            load_model(root / "v0002")

        registry = ModelRegistry(root)
        assert registry.load().name == "v0001"
        [(path, reason)] = registry.recent_skips()
        assert path.name == "v0002" and "failed to decode" in reason

    def test_all_versions_corrupt_raises(self, model_artifact, tmp_path):
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        corrupt_weights(root / "v0001")
        registry = ModelRegistry(root)
        with pytest.raises(RegistryError, match="no valid model version"):
            registry.load()

    def test_empty_root_raises(self, tmp_path):
        with pytest.raises(RegistryError, match="no model versions"):
            ModelRegistry(tmp_path).load()

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelRegistry(tmp_path / "nope")

    def test_accessors_require_load(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="call load"):
            registry.model
        with pytest.raises(RegistryError, match="call load"):
            registry.version


class TestHotSwap:
    def test_refresh_picks_up_new_version(self, model_artifact, tmp_path):
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        registry = ModelRegistry(root)
        registry.load()
        assert registry.refresh() is False  # nothing newer yet

        shutil.copytree(model_artifact, root / "v0002")
        assert registry.refresh() is True
        assert registry.version.name == "v0002"
        assert registry.refresh() is False  # already newest

    def test_refresh_skips_corrupt_newer_and_keeps_serving(
        self, model_artifact, tmp_path
    ):
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        registry = ModelRegistry(root)
        registry.load()
        old_model = registry.model

        shutil.copytree(model_artifact, root / "v0002")
        corrupt_weights(root / "v0002")
        assert registry.refresh() is False
        assert registry.version.name == "v0001"
        assert registry.model is old_model
        assert [path.name for path, _ in registry.recent_skips()] == ["v0002"]

    def test_known_bad_version_is_read_once_and_listed_once(
        self, model_artifact, tmp_path, monkeypatch
    ):
        import repro.serve.registry as registry_module

        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        shutil.copytree(model_artifact, root / "v0002")
        corrupt_weights(root / "v0002")
        loads = []

        def counting_load(path):
            loads.append(path.name)
            return load_model(path)

        monkeypatch.setattr(registry_module, "load_model", counting_load)
        registry = ModelRegistry(root)
        assert registry.load().name == "v0001"
        assert registry.refresh() is False
        assert registry.refresh() is False
        assert loads.count("v0002") == 1
        assert [path.name for path, _ in registry.recent_skips()] == ["v0002"]
        # Each rescan still counts the skip, so the reload breaker sees a
        # corrupt publish for as long as it stays up.
        assert registry.skip_count() == 3

    def test_republished_fixed_version_swaps_in(self, model_artifact, tmp_path):
        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        shutil.copytree(model_artifact, root / "v0002")
        corrupt_weights(root / "v0002")
        registry = ModelRegistry(root)
        assert registry.load().name == "v0001"
        assert registry.refresh() is False

        shutil.rmtree(root / "v0002")
        shutil.copytree(model_artifact, root / "v0002")
        assert registry.refresh() is True
        assert registry.version.name == "v0002"


class TestRepresentationCache:
    def test_hits_misses_and_values(self, model_artifact, rng):
        registry = ModelRegistry(model_artifact)
        features = rng.normal(size=(30, 5))
        labels = (rng.random(30) > 0.5).astype(np.float64)
        first = registry.representation(features, labels)
        second = registry.representation(features, labels)
        np.testing.assert_array_equal(first, second)
        assert registry.cache_stats() == {
            "hits": 1, "misses": 1, "size": 1, "capacity": 256,
        }

    def test_lru_eviction_is_bounded(self, model_artifact, rng):
        registry = ModelRegistry(model_artifact, representation_cache_size=2)
        tasks = [
            (rng.normal(size=(10, 3)), (rng.random(10) > 0.5).astype(np.float64))
            for _ in range(3)
        ]
        for features, labels in tasks:
            registry.representation(features, labels)
        assert registry.cache_stats()["size"] == 2
        # task 0 was evicted: requesting it again is a miss...
        registry.representation(*tasks[0])
        assert registry.cache_stats()["misses"] == 4
        # ...while task 2 (recently used) still hits.
        registry.representation(*tasks[2])
        assert registry.cache_stats()["hits"] == 1

    def test_cache_size_validation(self, model_artifact):
        with pytest.raises(ValueError, match="representation_cache_size"):
            ModelRegistry(model_artifact, representation_cache_size=0)


class TestTaskFingerprint:
    def test_sensitive_to_values_shape_and_dtype(self, rng):
        features = rng.normal(size=(8, 4))
        labels = np.ones(8)
        base = task_fingerprint(features, labels)
        assert task_fingerprint(features, labels) == base
        assert task_fingerprint(features + 1e-12, labels) != base
        assert task_fingerprint(features.astype(np.float32), labels) != base
        assert task_fingerprint(features.reshape(4, 8), labels) != base
        assert task_fingerprint(features, np.zeros(8)) != base


class TestThreadSafety:
    """Regressions for the cross-context hazards repolint's ASYNC9xx found.

    The server offloads ``refresh`` to an executor thread, so the
    registry's published pair and skip history are shared between the
    event loop and that thread.  These drills hammer the swap from real
    threads with the runtime sanitizer armed: a torn ``(model, version)``
    pair, a lost skip record or an unlocked cross-context access all fail.
    """

    def test_serving_returns_one_consistent_pair(self, model_artifact, tmp_path):
        import threading

        from repro.analysis import tsan

        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        registry = ModelRegistry(root)
        registry.load()

        previous = tsan.set_tsan_enabled(True)
        tsan.reset()
        tsan.register_loop()  # main thread plays the event loop
        try:
            stop = threading.Event()

            def churn():
                n = 2
                while not stop.is_set():
                    shutil.copytree(model_artifact, root / f"v{n:04d}")
                    registry.refresh()
                    n += 1

            swapper = threading.Thread(target=churn)
            swapper.start()
            try:
                for _ in range(200):
                    model, version = registry.serving()
                    # The pair is consistent: the version's feature count
                    # matches the model it was published with.
                    assert version.n_features == int(model._n_features)
                    assert registry.loaded
            finally:
                stop.set()
                swapper.join()
            found = tsan.violations()
            assert found == [], "; ".join(v.describe() for v in found)
        finally:
            tsan.reset()
            tsan.set_tsan_enabled(previous)

    def test_concurrent_skip_recording_loses_nothing(self, model_artifact, tmp_path):
        import threading

        root = tmp_path / "versions"
        root.mkdir()
        shutil.copytree(model_artifact, root / "v0001")
        registry = ModelRegistry(root)
        registry.load()
        bad = []
        for n in range(2, 6):
            candidate = root / f"v{n:04d}"
            shutil.copytree(model_artifact, candidate)
            corrupt_weights(candidate)
            bad.append(candidate)

        threads = [
            threading.Thread(target=registry.refresh) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every corrupt candidate was recorded by *some* thread, the
        # lifetime counter agrees, and the served version never moved.
        assert registry.skip_count() >= len(bad)
        assert registry.version.name == "v0001"

    def test_skip_history_stays_bounded_under_concurrency(
        self, model_artifact, tmp_path
    ):
        import threading

        from repro.serve.registry import MAX_SKIP_HISTORY

        registry = ModelRegistry(tmp_path)
        exercised = threading.Barrier(4)

        def hammer():
            exercised.wait()
            for n in range(40):
                registry._try_load("vX", tmp_path / f"missing-{n}")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.skip_count() == 160
        assert len(registry.recent_skips()) == MAX_SKIP_HISTORY
