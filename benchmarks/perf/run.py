"""Run one perf workload in this process and print its result.

    python3 benchmarks/perf/run.py --workload fit_narrow --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository: the program is
imported from the checkout's ``src/``.  BLAS is pinned to one thread before
numpy loads, so every run measures the same single-threaded kernels.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPO_ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    # Import the harness as a package and the program from this checkout.
    sys.path[0:1] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    from benchmarks.perf.harness import main as run

    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
