"""Telemetry stream: writer mechanics, fit() integration, run summaries."""

from __future__ import annotations

import gc
import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.core.pafeat import PAFeat
from repro.data.synthetic import generate_suite
from repro.io.checkpoint import CheckpointError
from repro.obs.telemetry import (
    TelemetryWriter,
    read_events,
    render_run_report,
    summarize_events,
)
from repro.obs.trace import NULL_TRACER, Tracer, read_trace
from tests.conftest import TINY_SPEC, fast_config


class FakeClock:
    def __init__(self) -> None:
        self.now = 50.0

    def __call__(self) -> float:
        self.now += 0.5
        return self.now


class TestTelemetryWriter:
    def test_events_carry_seq_and_offset(self, tmp_path):
        with TelemetryWriter(tmp_path, run_id="r", clock=FakeClock()) as writer:
            writer.emit("run_start", seed=7)
            writer.emit("episode", task=1, reward=0.5)
        events = read_events(tmp_path)
        assert [e["seq"] for e in events] == [0, 1]
        assert [e["type"] for e in events] == ["run_start", "episode"]
        # Epoch at 50.5; emits read 51.0 and 51.5.
        assert [e["t_s"] for e in events] == [0.5, 1.0]
        assert all(e["run"] == "r" for e in events)

    def test_payload_cannot_shadow_envelope(self, tmp_path):
        with TelemetryWriter(tmp_path, clock=FakeClock()) as writer:
            writer.emit("episode", seq=999, task=2)
        (event,) = read_events(tmp_path)
        assert event["seq"] == 0  # envelope wins
        assert event["task"] == 2

    def test_emit_after_close_is_noop(self, tmp_path):
        writer = TelemetryWriter(tmp_path, clock=FakeClock())
        writer.emit("run_start")
        writer.close()
        writer.emit("late")
        assert len(read_events(tmp_path)) == 1

    def test_read_events_accepts_file_or_directory(self, tmp_path):
        with TelemetryWriter(tmp_path, clock=FakeClock()) as writer:
            writer.emit("run_start")
        assert read_events(tmp_path) == read_events(tmp_path / "events.jsonl")


class TestFitIntegration:
    def test_fit_emits_a_complete_stream(self, tmp_path, tiny_split):
        train, _ = tiny_split
        config = fast_config(n_iterations=3)
        PAFeat(config).fit(train, telemetry=tmp_path)

        events = read_events(tmp_path)
        kinds = [e["type"] for e in events]
        assert kinds.count("run_start") == 1
        assert kinds.count("run_end") == 1
        assert kinds.count("iteration") == 3
        assert kinds.count("episode") == 3 * config.episodes_per_iteration
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"

        start = events[0]
        assert start["seed"] == config.seed
        assert start["iterations"] == 3

        episode = next(e for e in events if e["type"] == "episode")
        for key in ("task", "reward", "steps", "n_selected", "epsilon"):
            assert key in episode
        # The progress probe only reports once the scheduler has progress
        # snapshots; every episode after the first collection carries it.
        probed = [e for e in events if e["type"] == "episode" and "progress" in e]
        for event in probed:
            assert 0.0 <= event["progress_q"] <= 1.0

        iteration = next(e for e in events if e["type"] == "iteration")
        for key in ("iteration", "episodes", "mean_loss", "rewards_per_task"):
            assert key in iteration
        assert "cache" in iteration
        assert iteration["cache"]["hits"] + iteration["cache"]["misses"] > 0
        assert "phases" in iteration

        # The trace rides along in the same directory.
        assert (tmp_path / "trace.jsonl").exists()

    def test_fit_reuses_caller_writer_without_closing(self, tmp_path, tiny_split):
        train, _ = tiny_split
        writer = TelemetryWriter(tmp_path, run_id="mine")
        PAFeat(fast_config(n_iterations=2)).fit(train, telemetry=writer)
        writer.emit("custom", note="still open")
        writer.close()
        events = read_events(tmp_path)
        assert events[-1]["type"] == "custom"
        assert all(e["run"] == "mine" for e in events)

    def test_caller_writer_gets_a_trace_whose_view_is_the_phases(
        self, tmp_path, tiny_split
    ):
        train, _ = tiny_split
        with TelemetryWriter(tmp_path, run_id="mine") as writer:
            PAFeat(fast_config(n_iterations=2)).fit(train, telemetry=writer)
        spans = read_trace(tmp_path / "trace.jsonl")
        assert spans
        assert all(span["trace"] == "mine" for span in spans)
        seconds = {
            phase: sum(s["duration_s"] for s in spans if s["name"] == phase)
            for phase in ("train.fill", "train.update")
        }
        last = [e for e in read_events(tmp_path) if e["type"] == "iteration"][-1]
        expected = seconds["train.fill"] / sum(seconds.values())
        assert last["phases"]["train.fill"] == pytest.approx(expected, abs=1e-5)

    def test_phases_are_the_fill_and_update_span_shares(self, tmp_path, tiny_split):
        train, _ = tiny_split
        trainer = PAFeat(fast_config(n_iterations=1)).fit(train).trainer
        # Every tracer clock read advances 0.5 s, so each phase span lasts
        # exactly one tick.
        trainer.tracer = Tracer(io.StringIO(), clock=FakeClock())
        trainer.telemetry = TelemetryWriter(tmp_path, clock=FakeClock())
        trainer.train_iteration(1)
        trainer.telemetry.close()
        (iteration,) = [
            e for e in read_events(tmp_path) if e["type"] == "iteration"
        ]
        assert iteration["phases"] == {"train.fill": 0.5, "train.update": 0.5}

    def test_failed_resume_leaves_no_telemetry_attached(self, tmp_path, tiny_split):
        train, _ = tiny_split
        checkpoints = tmp_path / "ckpt"
        config = fast_config(n_iterations=2, checkpoint_every=1)
        PAFeat(config).fit(train, checkpoint_dir=checkpoints)
        twin = generate_suite(replace(TINY_SPEC, n_features=14))
        twin_train, _ = twin.split_rows(0.7, np.random.default_rng(0))
        model = PAFeat(config)
        with pytest.raises(CheckpointError, match="12-feature suite"):
            model.fit(
                twin_train,
                checkpoint_dir=checkpoints,
                resume=True,
                telemetry=tmp_path / "telemetry",
            )
        trainer = model.trainer
        assert trainer.telemetry is None
        assert trainer.tracer is NULL_TRACER
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del model, trainer
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestSummaries:
    def _events(self):
        return [
            {"type": "run_start", "run": "r", "seed": 5, "n_tasks": 2,
             "iterations": 2, "rollout_workers": 1},
            {"type": "episode", "task": 0, "reward": 0.4, "steps": 3,
             "epsilon": 0.9},
            {"type": "episode", "task": 1, "reward": 0.8, "steps": 5,
             "epsilon": 0.8},
            {"type": "iteration", "iteration": 0, "mean_loss": 0.25,
             "cache": {"hits": 3, "misses": 1, "hit_rate": 0.75},
             "its_visits": {"0": 1, "1": 1},
             "phases": {"train.fill": 0.6, "train.update": 0.4}},
            {"type": "run_end", "iterations": 2, "episodes": 2,
             "best_score": 0.81, "t_s": 1.5},
        ]

    def test_summarize_counts_and_tasks(self):
        summary = summarize_events(self._events())
        assert summary["counts"] == {"events": 3, "episodes": 2, "iterations": 1}
        assert summary["tasks"][0]["episodes"] == 1
        assert summary["tasks"][1]["mean_reward"] == 0.8
        assert summary["loss"]["last"] == 0.25
        assert summary["epsilon"] == {"first": 0.9, "last": 0.8}
        assert summary["cache"]["hit_rate"] == 0.75
        assert summary["run_end"]["best_score"] == 0.81

    def test_report_renders_finished_run(self):
        report = render_run_report(summarize_events(self._events()))
        assert "telemetry report: r" in report
        assert "seed=5" in report
        assert "task 0: 1 episodes" in report
        assert "finished: iterations=2, episodes=2, best_score=0.81" in report

    def test_report_flags_crashed_run(self):
        events = [e for e in self._events() if e["type"] != "run_end"]
        report = render_run_report(summarize_events(events))
        assert "no run_end event (crashed or still running)" in report

    def test_summary_is_json_serializable(self):
        json.dumps(summarize_events(self._events()))
