"""Bench: static-analysis wall time.

The full-tree ``repolint`` pass (per-file rules plus the import-graph,
call-graph, concurrency and exception passes) must stay fast enough to run
pre-commit and in CI on every push.

The ``parse_once`` section counts what the run's :class:`SourceCache`
saves: every rule and the program passes share one AST per file, so a
file that is both a lint target and a package module is parsed once.
``report`` times the package parse and the analysis artifact that
``python -m tools.repolint report`` writes.

Writes ``BENCH_static.json`` at the repo root::

    python benchmarks/bench_repolint.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from tools.repolint import analyze_paths, build_program  # noqa: E402
from tools.repolint.engine import SourceCache  # noqa: E402
from tools.repolint.report import build_report  # noqa: E402

LINT_TARGETS = (REPO_ROOT / "src", REPO_ROOT / "tools")


def best_of(repeats: int, fn) -> tuple[float, object]:
    """(best wall seconds, last result) over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_lint() -> dict:
    wall, findings = best_of(3, lambda: analyze_paths(list(LINT_TARGETS)))
    n_files = sum(1 for target in LINT_TARGETS for _ in target.rglob("*.py"))
    return {
        "targets": [str(t.relative_to(REPO_ROOT)) for t in LINT_TARGETS],
        "files": n_files,
        "findings": len(findings),
        "wall_s": round(wall, 4),
        "files_per_s": round(n_files / wall, 1) if wall else None,
    }


def bench_parse_once() -> dict:
    source_cache = SourceCache()
    analyze_paths(list(LINT_TARGETS), source_cache=source_cache)
    return {"parses": source_cache.parses, "parse_hits": source_cache.hits}


def bench_report() -> dict:
    wall, program = best_of(2, lambda: build_program(REPO_ROOT / "src"))
    assert program is not None
    report_wall, report = best_of(2, lambda: build_report(program))
    return {
        "build_program_wall_s": round(wall, 4),
        "build_report_wall_s": round(report_wall, 4),
        "call_edges": len(report["call_graph"]["edges"]),
        "import_edges": len(report["layers"]["edges"]),
    }


def main() -> None:
    payload = {
        "generated_by": "benchmarks/bench_repolint.py",
        "lint": bench_lint(),
        "parse_once": bench_parse_once(),
        "report": bench_report(),
    }
    out = REPO_ROOT / "BENCH_static.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
