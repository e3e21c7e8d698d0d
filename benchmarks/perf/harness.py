"""Run one workload in this process, check it, and report its metrics.

Prints every metric as ``name value unit``, then diagnostics, then as the
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) report the per-layer metrics.  Exits 1 when any
correctness gate fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.perf.host import reference_loop
from benchmarks.perf.tracing import (
    LAYERS,
    MIN_COVERAGE,
    coverage,
    layer_totals,
    per_layer_units,
)
from benchmarks.perf.workloads import (
    RUNNERS,
    WORKLOADS,
    Outcome,
    make_config,
    percentile_ms,
)

#: Gated end-to-end metrics and their units.  What ``latency_ms`` times on
#: each workload is listed in README.md.  Both times are host-scaled medians
#: (:mod:`benchmarks.perf.host`).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms": "ms",
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPO_ROOT = Path(__file__).resolve().parents[2]


def end_to_end(out: Outcome) -> dict[str, float]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": out.setup.scaled_median(),
        "peak_rss_mb": peak_kb / 1024.0,
        "latency_ms": out.latency.scaled_median() * 1e3,
    }


def per_layer(out: Outcome, kind: str) -> dict[str, float]:
    totals = layer_totals(out.recorder.spans)

    def calls(layer: str) -> int:
        return int(totals.get(layer, {}).get("calls", 0))

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = totals.get(layer, {}).get("self_s", 0.0)
        values[f"{layer}.calls"] = calls(layer)
    lookups = calls("rl.reward.hit") + calls("rl.reward.miss")
    flushes = calls("serve.engine.select_representations")
    fill_s = totals.get("core.feat.buffer_filling", {}).get("total_s", 0.0)
    values["rl.reward.hit_ratio"] = calls("rl.reward.hit") / lookups if lookups else 0.0
    values["core.ite.customised_ratio"] = out.customised_ratio
    values["serve.batch.mean_size"] = (
        calls("serve.batcher.queue_wait") / flushes if flushes else 0.0
    )
    values["core.feat.fill_episodes_per_s"] = (
        calls("core.feat.run_episode") / fill_s if fill_s else 0.0
    )
    values["trace.coverage"] = coverage(totals, kind)
    values["trace.overhead"] = out.traced_cost / out.untraced_cost
    return values


def git_sha(root: Path) -> str | None:
    """HEAD's commit; None outside a git checkout or without git."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=root,
            # Stop at ``root``: a checkout nested in another repository is
            # not that repository's commit.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def config_hash(name: str) -> str:
    """sha256 over the PA-FEAT config (minus the seed) and workload sizes."""
    config = asdict(make_config(0))
    del config["seed"]
    payload = {"config": config, "workload": asdict(WORKLOADS[name])}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def environment() -> dict[str, Any]:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": git_sha(REPO_ROOT),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    trace_dir: Path | None = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; returns (the result line, the full run record).

    A traced run with ``trace_dir`` also writes its spans to
    ``trace_dir/<name>.trace.jsonl``.
    """
    workload = WORKLOADS[name]
    probe_before = reference_loop() * 1e3
    out = RUNNERS[workload.kind](workload, seed, seconds, traced)
    probe_after = reference_loop() * 1e3
    if traced:
        if trace_dir is not None:
            out.recorder.write_jsonl(
                trace_dir / f"{name}.trace.jsonl", run_id=f"{name}-seed{seed}"
            )
        values = per_layer(out, workload.kind)
        units = per_layer_units()
        if values["trace.coverage"] < MIN_COVERAGE:
            out.problems.append(
                f"layers explain {values['trace.coverage']:.1%} of the timed "
                f"time, below {MIN_COVERAGE:.0%}"
            )
    else:
        values, units = end_to_end(out), END_TO_END
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        **result,
        "problems": out.problems,
        "diagnostics": {
            "latency_ms.raw_p50": percentile_ms(out.latency.raw_s, 50),
            "latency_ms.raw_mean": float(np.mean(out.latency.raw_s)) * 1e3,
            **out.diagnostics,
            "throughput_per_s": float(np.median(out.rates)),
            "setup_s.raw": out.setup.raw_s,
            "host_probe_ms": {"before": probe_before, "after": probe_after},
            "reference_loop_ms": {
                "parts": list(out.latency.parts),
                "reported_at": out.latency.reference_s * 1e3,
                "min": min(out.latency.loop_s) * 1e3,
                "max": max(out.latency.loop_s) * 1e3,
            },
        },
        "sizes": asdict(workload),
        "config_hash": config_hash(name),
        "env": environment(),
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-dir", type=Path, help="write <workload>.trace.jsonl here (traced runs)"
    )
    parser.add_argument("--out", type=Path, help="write the full run record here")
    args = parser.parse_args(argv)

    result, record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.trace_dir
    )
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(f"ops {result['attempted']}")
    print(f"failed {result['failed']}")
    for key, value in record["diagnostics"].items():
        print(f"# {key} {json.dumps(value)}")
    print(f"# config_hash {record['config_hash']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
