"""Self-test of the perf harness at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/perf

Calls the workload functions directly with shrunken :class:`Workload`
sizes, then checks the names the harness emits against ``BENCHMARK.json``,
that traced call counts repeat exactly, that the layers cover the timed
time, and that tracing leaves the training fingerprint unchanged.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.bench_obs import fingerprint
from benchmarks.perf import host
from benchmarks.perf.harness import END_TO_END, end_to_end, per_layer
from benchmarks.perf.tracing import MIN_COVERAGE, Recorder, layer_totals
from benchmarks.perf.workloads import (
    RUNNERS,
    WORKLOADS,
    Outcome,
    fit_unit,
    make_config,
    make_suite,
    stamped_fit,
    unit_seed,
)
from repro.core.pafeat import PAFeat
from repro.obs.trace import read_trace

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "fit_narrow": replace(WORKLOADS["fit_narrow"], rows=120, features=8, iterations=4),
    "select_wide": replace(
        WORKLOADS["select_wide"], rows=120, features=12, iterations=2, pool=4
    ),
    "serve_wide": replace(
        WORKLOADS["serve_wide"], rows=120, features=12, iterations=2,
        pool=8, lo_rate=200.0, hi_rate=400.0, callers=4, passes=2,
    ),
}
SECONDS = 0.4


def run(name: str, traced: bool, seed: int = 0) -> Outcome:
    workload = TINY[name]
    out = RUNNERS[workload.kind](workload, seed, SECONDS, traced)
    assert out.problems == []
    assert out.failed == 0 and out.attempted > 0
    return out


@pytest.fixture(scope="module")
def traced() -> dict[str, Outcome]:
    return {name: run(name, traced=True) for name in TINY}


def test_benchmark_json_matches_the_harness() -> None:
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert metric["unit"] and metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name: str) -> None:
    values = end_to_end(run(name, traced=False))
    assert list(values) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value in values.values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_every_layer_and_covers_the_timed_time(
    name: str, traced: dict[str, Outcome]
) -> None:
    values = per_layer(traced[name], TINY[name].kind)
    assert list(values) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert values["trace.coverage"] >= MIN_COVERAGE
    assert values["trace.overhead"] > 0


@pytest.mark.parametrize("name", ["fit_narrow", "select_wide"])
def test_layer_call_counts_repeat_with_the_same_seed(
    name: str, traced: dict[str, Outcome]
) -> None:
    again = run(name, traced=True)
    first = layer_totals(traced[name].recorder.spans)
    second = layer_totals(again.recorder.spans)
    assert {k: v["calls"] for k, v in first.items()} == {
        k: v["calls"] for k, v in second.items()
    }


def test_tracing_leaves_the_fit_fingerprint_unchanged(
    traced: dict[str, Outcome],
) -> None:
    # A traced run fingerprints an untraced unit, then the same unit traced;
    # both must equal the same whole fit run on its own.
    first = fit_unit(TINY["fit_narrow"], unit_seed(0, 0), Outcome(probe=False))
    assert traced["fit_narrow"].diagnostics["fingerprint"] == [
        first["fingerprint"], first["fingerprint"]
    ]


def test_the_timed_fit_is_a_plain_fit() -> None:
    # The timing stop_check, reference loop included, must leave training
    # as a fit without one.
    workload = TINY["fit_narrow"]
    suite, config = make_suite(workload, 3), make_config(3)
    out = Outcome()
    model, info = stamped_fit(workload, suite, config, out)
    plain = PAFeat(config).fit(suite, n_iterations=workload.iterations)
    assert len(info["iterations_s"]) == workload.iterations - 1
    assert out.latency.raw_s == info["iterations_s"]
    assert len(out.setup.raw_s) == 1
    assert fingerprint(model.trainer) == fingerprint(plain.trainer)


def test_samples_are_scaled_by_the_loop_around_their_block(monkeypatch) -> None:
    loops = iter([0.004, 0.008, 0.012])
    timed = []
    monkeypatch.setattr(
        host, "reference_loop", lambda parts: timed.append(parts) or next(loops)
    )
    speed = host.HostSpeed(parts=("small_arrays",))
    assert speed.reference_s == host.PARTS["small_arrays"][1]
    speed.mark()  # 4 ms
    speed.block([1.0, 3.0])  # 8 ms after: filed at 6 ms
    speed.block([2.0])  # 12 ms after: filed at 10 ms
    assert timed == [("small_arrays",)] * 3
    assert speed.loop_s == [0.006, 0.006, 0.010]
    # scaled: 1 s, 3 s and 2 s times the reference over 6, 6 and 10 ms
    assert speed.scaled_median() == pytest.approx(2.0 * speed.reference_s / 0.010)
    assert host.HostSpeed().reference_s == pytest.approx(0.006)


def test_self_time_and_trace_file(tmp_path: Path) -> None:
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    outer = rec.wrap("outer", lambda: inner())
    inner = rec.wrap("inner", lambda: None)
    outer()  # outer spans ticks 1..4, inner 2..3
    totals = layer_totals(rec.spans)
    assert totals["outer"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert totals["inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    rec.write_jsonl(tmp_path / "w.trace.jsonl", run_id="w")
    spans = read_trace(tmp_path / "w.trace.jsonl")
    assert [(s["name"], s["parent"]) for s in spans] == [
        ("inner", 1), ("outer", None)
    ]
