"""Bench: static-analysis wall time.

The full-tree ``repolint`` pass (per-file rules plus the import-graph,
call-graph, concurrency and exception passes) must stay fast enough to run
pre-commit and in CI on every push.

The ``lint_cache`` section measures the two caching layers on top of the
cold pass: the shared parse-once :class:`SourceCache` (every rule and the
program passes reuse one AST per file) and the SHA-keyed
:class:`ResultCache` warm re-run, with the speedup relative to the cold
wall time.  ``report`` times the package parse and the analysis artifact
that ``python -m tools.repolint report`` writes.

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


def bench_lint_cache(cold_wall_s: float) -> dict:
    import tempfile

    from tools.repolint.cache import ResultCache, SourceCache

    source_cache = SourceCache()
    shared_wall, _ = best_of(
        3, lambda: analyze_paths(list(LINT_TARGETS), source_cache=SourceCache())
    )
    analyze_paths(list(LINT_TARGETS), source_cache=source_cache)

    with tempfile.TemporaryDirectory() as scratch:
        cache_path = Path(scratch) / "cache.json"
        analyze_paths(
            list(LINT_TARGETS), result_cache=ResultCache(cache_path)
        )  # populate
        warm_cache = ResultCache(cache_path)
        warm_wall, _ = best_of(
            3,
            lambda: analyze_paths(
                list(LINT_TARGETS), result_cache=ResultCache(cache_path)
            ),
        )
        analyze_paths(list(LINT_TARGETS), result_cache=warm_cache)

    return {
        "shared_parse_wall_s": round(shared_wall, 4),
        "parses": source_cache.parses,
        "parse_hits": source_cache.hits,
        "warm_result_cache_wall_s": round(warm_wall, 4),
        "result_cache_hits": warm_cache.hits,
        "result_cache_misses": warm_cache.misses,
        "warm_speedup_vs_cold": (
            round(cold_wall_s / warm_wall, 2) if warm_wall else None
        ),
    }


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
    lint = bench_lint()
    payload = {
        "generated_by": "benchmarks/bench_repolint.py",
        "lint": lint,
        "lint_cache": bench_lint_cache(lint["wall_s"]),
        "report": bench_report(),
    }
    out = REPO_ROOT / "BENCH_static.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
