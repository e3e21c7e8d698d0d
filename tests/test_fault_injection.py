"""Fault-injection tests: crash/resume equivalence, corruption fallback,
atomic artifact I/O.

These tests drill the checkpoint subsystem the way an unreliable cluster
would: hard kills mid-training (no flush), SIGTERM-style graceful stops,
truncated and bit-flipped artifacts, and crashes injected mid-write.  The
core invariants:

* **Resume equivalence** — crash at iteration N + resume reproduces the
  uninterrupted run's RNG streams, agent weights (bit-identical) and
  unseen-task subsets exactly.
* **Fallback** — a corrupt checkpoint is detected, reported and skipped;
  resume uses the newest valid one instead of crashing or loading garbage.
* **Atomicity** — a crash mid-write never leaves a loadable-but-corrupt
  artifact in place of a good one.

Select/deselect with ``-m fault`` / ``-m "not fault"``.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro import load_model, save_model
from repro.core.pafeat import PAFeat
from repro.io.checkpoint import (
    CheckpointCorruptionError,
    CheckpointManager,
    TrainingInterrupted,
)
from repro.core.config import AgentConfig
from repro.rl.replay import ReplayBuffer
from tests.conftest import episode_batch, fast_config, make_episode
from tests.faults import CrashAt, SimulatedCrash, flip_bit, truncate_file

pytestmark = pytest.mark.fault

N_ITERATIONS = 12
CHECKPOINT_EVERY = 4


@pytest.fixture(scope="module")
def config():
    return fast_config(n_iterations=N_ITERATIONS)


@pytest.fixture(scope="module")
def train_tasks(tiny_split):
    train, _ = tiny_split
    return train


@pytest.fixture(scope="module")
def straight_run(config, train_tasks):
    """The uninterrupted reference run: final weights + unseen subsets."""
    model = PAFeat(config).fit(train_tasks)
    weights = model.trainer.agent.save_policy()
    subsets = {task.name: model.select(task) for task in train_tasks.unseen_tasks}
    return weights, subsets


@pytest.fixture(scope="module")
def pristine_checkpoints(config, train_tasks, tmp_path_factory):
    """A completed checkpointed run (ckpt-4/8/12), kept read-only.

    Tests that mutate checkpoints copy this directory first.  Also asserts
    the checkpointed run itself matches the checkpoint-free one — saving
    must be passive.
    """
    directory = tmp_path_factory.mktemp("pristine") / "ckpts"
    model = PAFeat(config).fit(
        train_tasks, checkpoint_dir=directory, checkpoint_every=CHECKPOINT_EVERY
    )
    weights = model.trainer.agent.save_policy()
    return directory, weights


def _copy_checkpoints(source, tmp_path):
    destination = tmp_path / "ckpts"
    shutil.copytree(source, destination)
    return destination


def _assert_same_weights(expected, actual):
    assert set(expected) == set(actual)
    for name in expected:
        np.testing.assert_array_equal(expected[name], actual[name])


def _assert_same_model(straight_run, model, train_tasks):
    expected_weights, expected_subsets = straight_run
    _assert_same_weights(expected_weights, model.trainer.agent.save_policy())
    assert {
        task.name: model.select(task) for task in train_tasks.unseen_tasks
    } == expected_subsets


def _resume_after_meta_edit(config, train_tasks, directory, edit):
    """Crash a checkpointed fit at iteration 7, rewrite the newest
    checkpoint's meta with ``edit`` and resume from it."""
    with pytest.raises(SimulatedCrash):
        PAFeat(config).fit(
            train_tasks,
            checkpoint_dir=directory,
            checkpoint_every=CHECKPOINT_EVERY,
            stop_check=CrashAt(7),
        )
    manager = CheckpointManager(directory)
    loaded = manager.latest_valid()
    assert loaded is not None and loaded.iteration == CHECKPOINT_EVERY
    meta = dict(loaded.meta)
    edit(meta)
    manager.save(loaded.iteration, meta, loaded.arrays)
    assert manager.latest_valid().meta == meta
    return PAFeat(config).fit(
        train_tasks,
        checkpoint_dir=directory,
        checkpoint_every=CHECKPOINT_EVERY,
        resume=True,
    )


def _wrapped_buffer():
    """A 12-row ring after three 5-step episodes: it has wrapped once."""
    buffer = ReplayBuffer(capacity=12, trajectory_window=4)
    rng = np.random.default_rng(3)
    for episode in range(3):
        buffer.add_trajectory(
            make_episode(
                rng.integers(2, size=5),
                rewards=rng.normal(size=5),
                states=rng.normal(size=(5, 4)),
                task_id=episode,
                selected_features=(0, episode),
                final_reward=float(rng.normal()),
            )
        )
    return buffer


def _assert_same_stream(buffer, clone):
    """Equal seeds draw identical batches from ``buffer`` and ``clone``.

    A terminal step's next state is masked filler, so only the others are
    compared.
    """
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(3):
        batch_a, batch_b = buffer.sample(8, rng_a), clone.sample(8, rng_b)
        for name in ("states", "actions", "rewards", "dones", "returns"):
            np.testing.assert_array_equal(getattr(batch_a, name), getattr(batch_b, name))
        live = ~batch_a.dones
        np.testing.assert_array_equal(
            batch_a.next_states[live], batch_b.next_states[live]
        )


class TestResumeEquivalence:
    def test_checkpointing_is_passive(self, straight_run, pristine_checkpoints):
        _, checkpointed_weights = pristine_checkpoints
        _assert_same_weights(straight_run[0], checkpointed_weights)

    def test_hard_crash_then_resume_is_bit_identical(
        self, config, train_tasks, straight_run, tmp_path
    ):
        directory = tmp_path / "ckpts"
        crashy = PAFeat(config)
        with pytest.raises(SimulatedCrash):
            crashy.fit(
                train_tasks,
                checkpoint_dir=directory,
                checkpoint_every=CHECKPOINT_EVERY,
                stop_check=CrashAt(7),  # dies between checkpoints 4 and 8
            )
        # the hard kill flushed nothing beyond the periodic checkpoint
        assert [p.name for p in sorted(directory.iterdir())] == ["ckpt-00000004"]

        resumed = PAFeat(config).fit(
            train_tasks,
            checkpoint_dir=directory,
            checkpoint_every=CHECKPOINT_EVERY,
            resume=True,
        )
        expected_weights, expected_subsets = straight_run
        _assert_same_weights(expected_weights, resumed.trainer.agent.save_policy())
        assert {
            task.name: resumed.select(task) for task in train_tasks.unseen_tasks
        } == expected_subsets

    def test_graceful_stop_flushes_final_checkpoint(
        self, config, train_tasks, straight_run, tmp_path
    ):
        directory = tmp_path / "ckpts"
        with pytest.raises(TrainingInterrupted) as excinfo:
            PAFeat(config).fit(
                train_tasks,
                checkpoint_dir=directory,
                checkpoint_every=10_000,  # periodic cadence never fires
                stop_check=lambda: True,  # SIGTERM arrives immediately
            )
        assert excinfo.value.iteration == 1
        assert excinfo.value.checkpoint_path is not None
        assert excinfo.value.checkpoint_path.exists()

        resumed = PAFeat(config).fit(
            train_tasks,
            checkpoint_dir=directory,
            checkpoint_every=10_000,
            resume=True,
        )
        _assert_same_weights(straight_run[0], resumed.trainer.agent.save_policy())

    def test_resume_without_checkpoints_trains_from_scratch(
        self, config, train_tasks, straight_run, tmp_path
    ):
        model = PAFeat(config).fit(
            train_tasks, checkpoint_dir=tmp_path / "empty", resume=True
        )
        _assert_same_weights(straight_run[0], model.trainer.agent.save_policy())

    def test_resume_ignores_a_pooled_fit_rollout_entry(
        self, config, train_tasks, straight_run, tmp_path
    ):
        # Older releases could fill buffers through a process pool, whose
        # checkpoints carry a "rollout" meta entry; a resume ignores it.
        def add_rollout(meta):
            meta["rollout"] = {
                "seed": config.seed,
                "n_workers": 2,
                "episodes_planned": CHECKPOINT_EVERY * config.episodes_per_iteration,
                "degraded": False,
                "degrade_reason": None,
            }

        resumed = _resume_after_meta_edit(
            config, train_tasks, tmp_path / "ckpts", add_rollout
        )
        _assert_same_model(straight_run, resumed, train_tasks)

    def test_resume_ignores_a_scheduler_progress_history(
        self, config, train_tasks, straight_run, tmp_path
    ):
        # Older releases kept the scheduler's probes of the last 256
        # planned episodes in its checkpoint meta; nothing read them, and a
        # resume ignores them.
        def add_progress_history(meta):
            scheduler = dict(meta["scheduler"])
            assert "progress_history" not in scheduler
            assert scheduler["last_progress"]
            scheduler["progress_history"] = [scheduler["last_progress"]] * 3
            meta["scheduler"] = scheduler

        resumed = _resume_after_meta_edit(
            config, train_tasks, tmp_path / "ckpts", add_progress_history
        )
        _assert_same_model(straight_run, resumed, train_tasks)

    def test_resume_requires_checkpoint_dir(self, config, train_tasks):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            PAFeat(config).fit(train_tasks, resume=True)

    @pytest.mark.parametrize("prioritized", [False, True])
    def test_crash_resume_with_wrapped_rings_is_bit_identical(
        self, train_tasks, prioritized, tmp_path
    ):
        # A default-start episode on the tiny suite takes at least 7 steps
        # (12 features, a budget of 7), so a 5-row ring wraps on its first
        # episode: every buffer in the first checkpoint has wrapped.
        capacity = 5
        config = fast_config(
            n_iterations=N_ITERATIONS,
            agent=AgentConfig(replay_capacity=capacity, prioritized_replay=prioritized),
        )
        straight = PAFeat(config).fit(train_tasks)
        directory = tmp_path / "ckpts"
        with pytest.raises(SimulatedCrash):
            PAFeat(config).fit(
                train_tasks,
                checkpoint_dir=directory,
                checkpoint_every=CHECKPOINT_EVERY,
                stop_check=CrashAt(7),
            )
        first = CheckpointManager(directory).latest_valid()
        assert first is not None and first.iteration == CHECKPOINT_EVERY
        buffers = first.meta["trainer"]["replay"]["buffers"]
        assert sorted(int(task) for task in buffers) == sorted(
            task.label_index for task in train_tasks.seen_tasks
        )
        for task, buffer_meta in buffers.items():
            assert buffer_meta["trajectories"]
            ring_actions = first.arrays[f"trainer/replay/{task}/ring/actions"]
            assert len(ring_actions) == capacity

        resumed = PAFeat(config).fit(
            train_tasks,
            checkpoint_dir=directory,
            checkpoint_every=CHECKPOINT_EVERY,
            resume=True,
        )
        _assert_same_weights(
            straight.trainer.agent.save_policy(), resumed.trainer.agent.save_policy()
        )
        assert [resumed.select(task) for task in train_tasks.unseen_tasks] == [
            straight.select(task) for task in train_tasks.unseen_tasks
        ]


class TestCorruptionFallback:
    def test_bit_flip_is_detected_and_skipped(self, pristine_checkpoints, tmp_path):
        source, _ = pristine_checkpoints
        directory = _copy_checkpoints(source, tmp_path)
        flip_bit(directory / "ckpt-00000012" / "arrays.npz")
        manager = CheckpointManager(directory)
        loaded = manager.latest_valid()
        assert loaded is not None and loaded.iteration == 8
        assert len(manager.skipped) == 1
        path, reason = manager.skipped[0]
        assert path.name == "ckpt-00000012" and "checksum mismatch" in reason

    def test_truncated_artifact_is_detected_and_skipped(
        self, pristine_checkpoints, tmp_path
    ):
        source, _ = pristine_checkpoints
        directory = _copy_checkpoints(source, tmp_path)
        truncate_file(directory / "ckpt-00000012" / "state.json", 16)
        manager = CheckpointManager(directory)
        loaded = manager.latest_valid()
        assert loaded is not None and loaded.iteration == 8
        assert "truncated" in manager.skipped[0][1]

    def test_missing_manifest_means_incomplete(self, pristine_checkpoints, tmp_path):
        source, _ = pristine_checkpoints
        directory = _copy_checkpoints(source, tmp_path)
        (directory / "ckpt-00000012" / "manifest.json").unlink()
        manager = CheckpointManager(directory)
        with pytest.raises(CheckpointCorruptionError, match="missing manifest"):
            manager.validate(directory / "ckpt-00000012")
        assert manager.latest_valid().iteration == 8

    def test_resume_over_corrupt_checkpoint_matches_straight_run(
        self, config, train_tasks, straight_run, pristine_checkpoints, tmp_path
    ):
        source, _ = pristine_checkpoints
        directory = _copy_checkpoints(source, tmp_path)
        flip_bit(directory / "ckpt-00000012" / "arrays.npz")
        resumed = PAFeat(config).fit(
            train_tasks,
            checkpoint_dir=directory,
            checkpoint_every=CHECKPOINT_EVERY,
            resume=True,
        )
        _assert_same_weights(straight_run[0], resumed.trainer.agent.save_policy())

    def test_every_checkpoint_corrupt_falls_back_to_fresh_start(
        self, config, train_tasks, straight_run, pristine_checkpoints, tmp_path
    ):
        source, _ = pristine_checkpoints
        directory = _copy_checkpoints(source, tmp_path)
        for checkpoint in directory.iterdir():
            flip_bit(checkpoint / "arrays.npz")
        resumed = PAFeat(config).fit(
            train_tasks,
            checkpoint_dir=directory,
            checkpoint_every=CHECKPOINT_EVERY,
            resume=True,
        )
        _assert_same_weights(straight_run[0], resumed.trainer.agent.save_policy())


class TestAtomicity:
    def test_crash_mid_checkpoint_write_leaves_no_partial_checkpoint(
        self, pristine_checkpoints, tmp_path, monkeypatch
    ):
        source, _ = pristine_checkpoints
        directory = _copy_checkpoints(source, tmp_path)
        manager = CheckpointManager(directory)
        good = manager.latest_valid()
        assert good is not None and good.iteration == 12

        import repro.io.checkpoint as checkpoint_module

        def crash(src, dst, *args, **kwargs):
            raise SimulatedCrash("crash before publish")

        monkeypatch.setattr(checkpoint_module.os, "replace", crash)
        with pytest.raises(SimulatedCrash):
            manager.save(16, {"meta": True}, {"x": np.arange(3.0)})
        monkeypatch.undo()

        fresh = CheckpointManager(directory)
        assert [p.name for p in fresh.checkpoint_paths()] == [
            "ckpt-00000004",
            "ckpt-00000008",
            "ckpt-00000012",
        ]
        assert fresh.latest_valid().iteration == 12

    def test_crash_mid_save_model_preserves_previous_artifact(
        self, config, train_tasks, tmp_path, monkeypatch
    ):
        model = PAFeat(fast_config(n_iterations=2)).fit(train_tasks)
        directory = save_model(model, tmp_path / "model")
        before = (directory / "weights.npz").read_bytes()

        import repro.io.checkpoint as checkpoint_module

        def crash(src, dst, *args, **kwargs):
            raise SimulatedCrash("crash mid-save")

        monkeypatch.setattr(checkpoint_module.os, "replace", crash)
        with pytest.raises(SimulatedCrash):
            save_model(model, directory)
        monkeypatch.undo()

        assert (directory / "weights.npz").read_bytes() == before
        restored = load_model(directory)
        for task in train_tasks.unseen_tasks:
            assert restored.select(task) == model.select(task)

    def test_save_model_rejects_non_finite_weights(self, train_tasks, tmp_path):
        model = PAFeat(fast_config(n_iterations=2)).fit(train_tasks)
        parameter = model.trainer.agent.online.parameters()[0]
        parameter.value[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            save_model(model, tmp_path / "model")


class TestCheckpointManagerRetention:
    def test_keep_last_prunes_oldest(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ck", keep_last=2)
        for iteration in (1, 2, 3, 4):
            manager.save(iteration, {"i": iteration}, {"x": np.full(4, iteration)})
        names = [p.name for p in manager.checkpoint_paths()]
        assert names == ["ckpt-00000003", "ckpt-00000004"]
        loaded = manager.latest_valid()
        assert loaded.iteration == 4
        assert loaded.meta == {"i": 4}
        np.testing.assert_array_equal(loaded.arrays["x"], np.full(4, 4.0))

    def test_resaving_an_iteration_replaces_it(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ck")
        manager.save(5, {"version": "old"}, {})
        manager.save(5, {"version": "new"}, {})
        assert manager.latest_valid().meta == {"version": "new"}


class TestStateRoundTrips:
    """Component-level capture/restore exactness (cheap unit checks)."""

    def test_replay_buffer_round_trip_preserves_sampling_stream(self):
        buffer = _wrapped_buffer()
        meta, arrays = buffer.capture_state()
        clone = ReplayBuffer(capacity=12, trajectory_window=4)
        clone.restore_state(meta, arrays)

        assert len(clone) == len(buffer)
        original_tail = buffer.recent_trajectories()
        restored_tail = clone.recent_trajectories()
        assert restored_tail == original_tail
        _assert_same_stream(buffer, clone)

    def test_replay_buffer_restore_ignores_the_transition_layout_keys(self):
        # Snapshots of the per-transition layout also carry successor
        # states, the tail's step arrays and each tail episode's length.
        buffer = _wrapped_buffer()
        meta, arrays = buffer.capture_state()
        legacy_arrays = dict(arrays)
        legacy_arrays["ring/next_states"] = np.full_like(arrays["ring/states"], 7.0)
        for name in ("states", "next_states"):
            legacy_arrays[f"tail/{name}"] = np.ones((20, 4))
        for name, dtype in (
            ("actions", np.int64),
            ("rewards", np.float64),
            ("dones", bool),
            ("returns", np.float64),
        ):
            legacy_arrays[f"tail/{name}"] = np.ones(20, dtype=dtype)
        legacy_meta = dict(meta)
        legacy_meta["trajectories"] = [
            {**record, "length": 5} for record in meta["trajectories"]
        ]
        clone = ReplayBuffer(capacity=12, trajectory_window=4)
        clone.restore_state(legacy_meta, legacy_arrays)
        assert clone.recent_trajectories() == buffer.recent_trajectories()
        _assert_same_stream(buffer, clone)

    def test_etree_round_trip_preserves_selection(self):
        from repro.core.etree import ETree
        from repro.core.state import EnvState

        tree = ETree(n_features=6)
        rng = np.random.default_rng(11)
        for episode in range(12):
            trajectory = make_episode(
                rng.integers(2, size=6), final_reward=float(rng.random())
            )
            tree.add_trajectory(trajectory, start=EnvState(selected=(), position=0))

        meta, arrays = tree.capture_state()
        clone = ETree(n_features=6)
        clone.restore_state(meta, arrays)
        assert clone.n_nodes == tree.n_nodes
        assert clone.select_state(np.random.default_rng(5)) == tree.select_state(
            np.random.default_rng(5)
        )

    def test_agent_round_trip_preserves_behaviour(self):
        from repro.rl.agent import DuelingDQNAgent
        from repro.rl.schedules import LinearDecay

        def build():
            return DuelingDQNAgent(
                state_dim=6,
                n_actions=2,
                hidden=(8,),
                gamma=0.9,
                lr=1e-2,
                epsilon_schedule=LinearDecay(1.0, 0.1, 50),
                target_sync_every=5,
                rng=np.random.default_rng(21),
            )

        agent = build()
        rng = np.random.default_rng(7)
        batch = episode_batch(
            make_episode(
                rng.integers(2, size=17),
                rewards=rng.normal(size=17),
                states=rng.normal(size=(17, 6)),
            ),
            rows=range(16),
        )
        for _ in range(7):
            agent.update(batch)
        for _ in range(5):
            agent.act(np.zeros(6))

        meta, arrays = agent.capture_state()
        clone = build()
        clone.restore_state(meta, arrays)
        assert clone.update_count == agent.update_count
        assert clone.action_count == agent.action_count
        # identical forward pass, exploration stream and further updates
        probe = rng.normal(size=6)
        np.testing.assert_array_equal(clone.q_values(probe), agent.q_values(probe))
        assert [clone.act(probe) for _ in range(20)] == [
            agent.act(probe) for _ in range(20)
        ]
        assert clone.update(batch) == agent.update(batch)
        np.testing.assert_array_equal(clone.q_values(probe), agent.q_values(probe))
