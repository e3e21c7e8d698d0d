"""Run the perf workloads, each in its own subprocess, one after another.

    python -m benchmarks.perf run [--workload NAME] [--seed S] [--trace DIR] [--out FILE]
    python -m benchmarks.perf calibrate [--runs N] [--sets K]

``run`` runs every workload (or one) untraced, or traced with ``--trace
DIR``, which also writes ``DIR/<workload>.trace.jsonl``.  It writes all
run records to ``--out`` (default ``out/record.json`` next to this file).

``calibrate`` runs ``--sets`` sets of ``--runs`` runs of each workload,
round-robin, set k on seeds k*N..k*N+N-1.  A metric's spread on a
workload is the interquartile range over the median of all its values.
One rule sets every bound in ``BENCHMARK.json``: twice the worst
workload's spread, at least the metric's floor, rounded up to 5%.  The
floor is 25% for times (:data:`TIME_UNITS`) and 10% for everything else.
A bound above 25%, the largest a gate may have, means the metric must be
demoted to a diagnostic.  So does a set whose median is worse than the
first set's by more than the bound.  Calibrate names such metrics and
exits 1; it also names every set whose spread is above a third of the
bound.  Every value, spread, set median and bound goes to
``spreads.json`` next to this file.

Run length is ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
SPREADS_JSON = PERF_DIR / "spreads.json"
#: Bound floor and ceiling; a metric whose bound would exceed the ceiling
#: is demoted.
MIN_BOUND, MAX_BOUND = 0.10, 0.25
#: Units of times, whose bound floor is the ceiling.  A time's spread
#: measured on one host does not carry over to another: an unscaled
#: latency whose runs spread at most 11.6% on one 2-vCPU VM spread 37-47%
#: on another.
TIME_UNITS = ("s", "ms")
#: Bound per unit of the worst spread.
SPREADS_PER_BOUND = 2
RUN_TIMEOUT_S = 900


def run_one(
    name: str, seed: int, seconds: int, trace_dir: Path | None
) -> tuple[int, dict[str, Any] | None]:
    """One workload in a subprocess; its output passes through."""
    with tempfile.TemporaryDirectory() as tmp:
        record_path = Path(tmp) / "record.json"
        command = [
            sys.executable, str(PERF_DIR / "run.py"),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0" if trace_dir is None else "1",
            "--out", str(record_path),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
        record = json.loads(record_path.read_text()) if record_path.exists() else None
    return code, record


def cmd_run(args: argparse.Namespace, names: list[str], seconds: int) -> int:
    records, failures = [], []
    for name in args.workload or names:
        print(f"== {name} (seed {args.seed}, {seconds}s)", flush=True)
        code, record = run_one(name, args.seed, seconds, args.trace)
        if record is not None:
            records.append(record)
        if code != 0:
            failures.append(name)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"records": records}, indent=2) + "\n")
    print(f"wrote {len(records)} run records to {args.out}")
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def ceil_to_5pct(value: float) -> float:
    return math.ceil(round(value * 20, 9)) / 20


def spread(values: list[float]) -> float:
    """Interquartile range over median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def cmd_calibrate(args: argparse.Namespace, names: list[str], seconds: int) -> int:
    # Round-robin over workloads, so each workload's runs spread over the
    # whole calibration and see the host's slow and quiet periods alike.
    samples: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    total = args.runs * args.sets
    for seed in range(total):
        for name in names:
            print(f"== {name} run {seed + 1}/{total}", flush=True)
            code, record = run_one(name, seed, seconds, None)
            if code != 0 or record is None:
                print(f"{name} seed {seed} failed", file=sys.stderr)
                return 1
            for metric, entry in record["metrics"].items():
                samples[name].setdefault(metric, []).append(entry["value"])
            probe = record["diagnostics"]["host_probe_ms"]["before"]
            samples[name].setdefault("host_probe_ms", []).append(probe)

    benchmark = json.loads(BENCHMARK_JSON.read_text())
    metrics = benchmark["end_to_end"]
    spreads: dict[str, dict[str, Any]] = {}
    for name in names:
        for metric, values in samples[name].items():
            sets = [values[k : k + args.runs] for k in range(0, total, args.runs)]
            spreads.setdefault(metric, {})[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "set_medians": [statistics.median(s) for s in sets],
                "set_spreads": [spread(s) for s in sets],
                "values": values,
            }
    worst = {
        e["name"]: max(stats["spread"] for stats in spreads[e["name"]].values())
        for e in metrics
    }
    wanted = {
        e["name"]: ceil_to_5pct(
            max(
                MAX_BOUND if e["unit"] in TIME_UNITS else MIN_BOUND,
                SPREADS_PER_BOUND * worst[e["name"]],
            )
        )
        for e in metrics
    }
    demote = {name for name, bound in wanted.items() if bound > MAX_BOUND}
    for entry in metrics:
        entry["bound"] = min(MAX_BOUND, wanted[entry["name"]])
    noisy, drifted = [], []
    for entry in metrics:
        name, sign = entry["name"], 1 if entry["better"] == "lower" else -1
        for workload, stats in spreads[name].items():
            first = stats["set_medians"][0]
            if max(stats["set_spreads"]) > entry["bound"] / 3:
                noisy.append(f"{name}/{workload}")
            if any(sign * (m / first - 1) > entry["bound"] for m in stats["set_medians"]):
                drifted.append(f"{name}/{workload}")
                demote.add(name)
        print(f"{name}: worst spread {worst[name]:.3f} -> bound {entry['bound']:.2f}")
    SPREADS_JSON.write_text(
        json.dumps(
            {
                "runs": args.runs,
                "sets": args.sets,
                "seconds": seconds,
                "rule": "spread = (q3 - q1) / median over all runs, seeds "
                "0..sets*runs-1; bound = max(floor, 2 * worst spread) rounded "
                "up to 0.05, floor 0.25 for times and 0.10 otherwise; a bound "
                "over 0.25, or a set median worse than the first set's by "
                "more than the bound, demotes the metric",
                "bounds": {e["name"]: e["bound"] for e in metrics},
                "set_spread_above_a_third_of_bound": noisy,
                "set_median_past_bound": drifted,
                "demote": sorted(demote),
                "spreads": spreads,
            },
            indent=2,
        )
        + "\n"
    )
    BENCHMARK_JSON.write_text(json.dumps(benchmark, indent=2) + "\n")
    print(f"wrote {SPREADS_JSON} and bounds in {BENCHMARK_JSON}")
    if noisy:
        print(f"set spread above a third of its bound: {', '.join(noisy)}")
    if drifted:
        print(f"set median past its bound: {', '.join(drifted)}", file=sys.stderr)
    if demote:
        print(f"demote to diagnostics: {', '.join(sorted(demote))}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads once")
    run.add_argument("--workload", action="append", choices=names)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", type=Path, metavar="DIR", help="traced runs")
    run.add_argument("--out", type=Path, default=PERF_DIR / "out" / "record.json")
    calibrate = commands.add_parser("calibrate", help="measure spreads, set bounds")
    calibrate.add_argument("--runs", type=int, default=10, help="runs per set")
    calibrate.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args, names, benchmark["run_seconds"])
    return cmd_calibrate(args, names, benchmark["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
