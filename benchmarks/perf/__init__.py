"""The perf harness: end-to-end and per-layer metrics of fit, select and serve.

``python3 benchmarks/perf/run.py`` runs one workload in its process;
``python -m benchmarks.perf run`` runs every workload, each in its own
subprocess.  See README.md in this directory.
"""
