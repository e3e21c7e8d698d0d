PYTHON ?= python
export PYTHONPATH := src

.PHONY: size lint lint-changed lint-concurrency lint-exceptions typecheck test test-perf test-serve test-fault test-chaos test-chaos-tsan test-tsan serve bench-serve bench-resilience bench-obs check

## Net .py lines of src/ and tools/, the code size ROADMAP tracks.
size:
	@for dir in src tools; do \
		printf '%-7s %6d lines\n' "$$dir/" "$$(find $$dir -name '*.py' -exec cat {} + | wc -l)"; \
	done

## Full static-analysis gate: every repolint rule over src/ and tools/.
lint:
	$(PYTHON) -m tools.repolint src/ tools/

## Fast path: per-file rules over only the .py files git reports as
## modified/untracked; program rules still parse the whole package.
lint-changed:
	$(PYTHON) -m tools.repolint --changed src/

## The concurrency certificate (must be clean).  `make lint` already runs
## ASYNC901-905 with every other rule; the certificate applies no pragmas.
lint-concurrency:
	$(PYTHON) -m tools.repolint report --anchor src --out concurrency-certificate.json
	$(PYTHON) -c "import json; c = json.load(open('concurrency-certificate.json'))['concurrency_certificate']; assert c['clean'], c['findings']; print('concurrency certificate clean:', len(c['functions']), 'functions')"

## The exception certificate (must be clean).  `make lint` already runs
## EXC1001-1005 with every other rule; the certificate applies no pragmas.
lint-exceptions:
	$(PYTHON) -m tools.repolint report --anchor src --out exception-certificate.json
	$(PYTHON) -c "import json; c = json.load(open('exception-certificate.json'))['exception_certificate']; assert c['clean'], c['findings']; print('exception certificate clean:', len(c['boundaries']), 'boundaries,', len(c['broad_handlers']), 'broad handlers')"

## mypy --strict over the library (no-op with a notice if mypy is absent).
typecheck:
	@$(PYTHON) -c "import importlib.util,sys; sys.exit(0 if importlib.util.find_spec('mypy') else 1)" \
		&& $(PYTHON) -m mypy --strict src/repro \
		|| echo "mypy not installed (pip install -e .[dev]); skipping typecheck"

## Tier-1 suite (excludes the fault-injection and chaos markers).
test:
	$(PYTHON) -m pytest -x -q -m "not fault and not chaos"

## Perf harness self-test at tiny sizes: fails when a callable the harness
## wraps (env encode/step/reset_to, greedy_subset, the serve kernel, agent
## q_values/act/act_batch, pearson_representation) is renamed or moved.
test-perf:
	$(PYTHON) -m pytest -q benchmarks/perf

## Serving subsystem only: engine parity, batcher, registry, server, metrics,
## the /select property test, and the scan encoder and exact-tie rule the
## serving kernel reads.
test-serve:
	$(PYTHON) -m pytest -x -q tests/test_serve_engine.py tests/test_serve_batcher.py \
		tests/test_serve_registry.py tests/test_serve_server.py tests/test_serve_metrics.py \
		tests/test_serve_select_property.py tests/test_resilience.py \
		tests/test_scan_encoder.py tests/test_select_inference.py

## Fault-injection / crash-safety suite.
test-fault:
	$(PYTHON) -m pytest -x -q -m fault

## Chaos drills against a live server: latency storms, corrupt artifacts,
## mid-batch crashes.  Asserts shedding, breaker recovery and exact answers.
test-chaos:
	$(PYTHON) -m pytest -x -q -m chaos

## Chaos drills with the runtime thread sanitizer armed process-wide:
## any cross-context unlocked write observed during a drill fails it.
test-chaos-tsan:
	REPRO_TSAN=1 $(PYTHON) -m pytest -x -q -m chaos

## The CI tsan lane, locally: tier-1 and the fault drills with the
## runtime sanitizer armed — the conftest gate fails any test observing a
## lockset violation.
test-tsan:
	REPRO_TSAN=1 $(PYTHON) -m pytest -x -q -m "not fault and not chaos"
	REPRO_TSAN=1 $(PYTHON) -m pytest -x -q -m fault

## Run the selection server on a saved model (MODEL=path/to/artifact).
serve:
	$(PYTHON) -m repro serve --checkpoint-dir $(MODEL)

## Batched-vs-sequential serving throughput; writes BENCH_serve.json.
bench-serve:
	$(PYTHON) benchmarks/bench_serve.py

## Resilience-primitive overhead gate; writes BENCH_resilience.json.
bench-resilience:
	$(PYTHON) benchmarks/bench_resilience.py

## Telemetry parity + disabled-path overhead gates; writes BENCH_obs.json
## and sample telemetry under benchmarks/results/obs_telemetry/.
bench-obs:
	$(PYTHON) benchmarks/bench_obs.py

## Everything CI runs.
check: lint lint-concurrency lint-exceptions typecheck test test-perf test-fault test-chaos-tsan test-tsan
