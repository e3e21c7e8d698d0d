"""The perf workloads: fit, select and serve on the synthetic dataset twins.

Each ``run_<kind>`` function takes a :class:`Workload` (sizes), the workload
seed and the run length, and returns an :class:`Outcome` of raw samples.
The program only receives inputs generated from the workload seed:

* fit runs whole default ``PAFeat(config).fit(suite)`` calls, each on a
  synthetic suite and ``PAFeatConfig.seed`` drawn from (seed, k) for the
  k-th fit of the run, and starts another until ``seconds`` have passed.
  Whole fits, because early iterations cost more than late ones: a fit
  cut off at a deadline would weight them by the host's speed.  Its
  ``stop_check`` times every iteration: set-up ends with iteration 1, and
  every later iteration is a sample.
* select and serve query one deployed model, trained from the catalog
  twin with :data:`MODEL_SEED`, because a policy's subset sizes, and with
  them the cost of every query, vary by about 20% across training seeds.
  The seed draws the traffic: which bootstrap resamples of the unseen
  tasks are asked, in what order, and when they arrive.

Every sample is filed with the host's speed around it
(:class:`~benchmarks.perf.host.HostSpeed`): blocks of work alternate with
timings of a fixed reference loop.  ``setup_s`` samples are set-ups, fits
stopped after iteration 1, :data:`SETUPS` of them on one input before the
timed part, and one more per fit.  Traced runs do one untraced unit and
then the same unit traced (on serve, each half the run), so the outputs
(and for fit the trainer fingerprint) can be compared and the tracing
overhead measured; they do not time the reference loop.
"""

from __future__ import annotations

import asyncio
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator

import numpy as np

from repro.core.config import PAFeatConfig
from repro.core.pafeat import PAFeat
from repro.data.catalog import DATASETS
from repro.data.stats import pearson_representation
from repro.data.synthetic import generate_suite
from repro.data.tasks import Task, TaskSuite
from repro.errors import TrainingInterrupted
from repro.obs.clock import monotonic
from repro.serve.batcher import MicroBatcher, QueueFull
from repro.serve.engine import BatchedGreedyEngine

from benchmarks.bench_obs import fingerprint
from benchmarks.perf.host import WHOLE, HostSpeed
from benchmarks.perf.tracing import ROOT, Recorder, install_setup, install_timed

#: Set-ups of one input timed per untraced run.  Select and serve set up
#: the same input on every seed, so their ``setup_s`` spread is the host's
#: alone: 11% with 5 set-ups per run over 10 runs.
SETUPS = 9
#: Seed of the model select and serve query.
MODEL_SEED = 0
#: Fit iterations between two timings of the reference loop: one
#: best-policy scoring period of the default config.
PROBE_ITERATIONS = 10
#: Selects, and closed-loop serve rounds, between two timings of the
#: reference loop: about half a second of work on a 2-vCPU VM.
PROBE_SELECTS = 64
PROBE_ROUNDS = 16


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.  Tests shrink them with ``dataclasses.replace``."""

    kind: str  # "fit" | "select" | "serve"
    dataset: str  # catalog twin the suite is generated from
    rows: int | None = None  # row cap; None keeps the catalog size
    features: int | None = None  # feature cap; None keeps the catalog size
    #: fit: iterations of one whole fit, the set-up's first included (the
    #: default ``PAFeatConfig.n_iterations``); select/serve: of the model
    iterations: int = PAFeatConfig().n_iterations
    #: select/serve: distinct bootstrap tasks, each asked equally often.
    #: The cost of a select depends on its task: the median over 64 tasks
    #: moved by ±10% with the seed that drew them.
    pool: int = 256
    lo_rate: float = 400.0  # serve: open-loop arrivals/s, light phase
    #: serve: open-loop arrivals/s, heavy phase.  At 1600/s a 2-vCPU VM in
    #: a slow spell fell behind and shed requests at the queue bound.
    hi_rate: float = 800.0
    callers: int = 128  # serve: closed-loop callers, saturation phase
    #: serve: passes over the pool the closed-loop rounds are cut from
    passes: int = 8


WORKLOADS: dict[str, Workload] = {
    # Small m, many tasks: Q updates and best-policy scoring lead a fit.
    "fit_narrow": Workload("fit", "water-quality"),
    # Table II "Exec": sequential B=1 greedy episodes; bypasses core.batch.
    "select_wide": Workload("select", "emotions", iterations=40),
    # Batched serving through MicroBatcher and the core.batch kernel.
    "serve_wide": Workload("serve", "emotions", iterations=40),
}

#: MicroBatcher settings: the ``repro serve`` server defaults.
SERVER_DEFAULTS = {
    "max_batch_size": 64,
    "max_latency_ms": 5.0,
    "max_queue_depth": 256,
    "watchdog_timeout_ms": 5000.0,
}
#: Serve phase lengths as shares of the run length: lo, hi, sat.  Only
#: the closed-loop ``sat`` phase is gated, so it gets most of the run.
SERVE_SHARES = (0.2, 0.2, 0.6)
#: Throughput samples taken from the ``sat`` phase.
SAT_WINDOWS = 10


@dataclass
class Outcome:
    """Raw samples of one run, reduced to metrics by the harness."""

    #: time the reference loop next to the work (untraced runs)
    probe: bool = True
    #: the loop parts ``latency`` is scaled by
    latency_parts: tuple[str, ...] = WHOLE
    #: set-ups, behind ``setup_s``
    setup: HostSpeed = field(init=False)
    #: every timed fit iteration, select call, or closed-loop serve round
    #: (its requests' mean latency), behind ``latency_ms``
    latency: HostSpeed = field(init=False)
    #: operations per second of each block of work (a fit, a pass over the
    #: select pool, a tenth of the ``sat`` responses); ``throughput_per_s``
    #: is their median
    rates: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    diagnostics: dict[str, Any] = field(default_factory=dict)
    recorder: Recorder | None = None
    #: share of the traced fit unit's ITE starts that were customised
    customised_ratio: float = 0.0
    #: cost of the untraced and traced unit (seconds, or 1/throughput)
    untraced_cost: float = 0.0
    traced_cost: float = 0.0

    def __post_init__(self) -> None:
        self.setup = HostSpeed(self.probe)
        self.latency = HostSpeed(self.probe, self.latency_parts)


def make_suite(workload: Workload, seed: int) -> TaskSuite:
    spec = DATASETS[workload.dataset].to_synthetic()
    features = min(spec.n_features, workload.features or spec.n_features)
    spec = replace(
        spec,
        seed=spec.seed + seed,
        n_instances=min(spec.n_instances, workload.rows or spec.n_instances),
        n_features=features,
        task_informative=min(spec.task_informative, max(1, features // 4)),
    )
    return generate_suite(spec)


def make_config(seed: int) -> PAFeatConfig:
    return PAFeatConfig(seed=seed)


def unit_seed(seed: int, unit: int) -> int:
    """Suite and config seed of a run's ``unit``-th fit."""
    return int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])


def check_subsets(
    subsets: list[tuple[int, ...]], n_features: int, budget: int
) -> list[str]:
    """Each subset is non-empty, sorted, unique, in range and within budget."""
    problems = []
    for index, subset in enumerate(subsets):
        if (
            not subset
            or list(subset) != sorted(set(subset))
            or subset[0] < 0
            or subset[-1] >= n_features
            or len(subset) > budget
        ):
            problems.append(f"subset {index} is malformed: {subset}")
    return problems


def bootstrap_tasks(suite: TaskSuite, count: int, seed: int) -> Iterator[Task]:
    """Row-bootstrap resamples of the unseen tasks, made before timing."""
    rng = np.random.default_rng([seed, 1])
    n = suite.table.n_rows
    for index in range(count):
        base = suite.unseen_tasks[index % len(suite.unseen_tasks)]
        table = suite.table.select_rows(rng.integers(0, n, size=n))
        yield Task(f"{base.name}-boot{index}", base.label_index, table)


def expected_subsets(
    model: PAFeat, tasks: Iterable[Task], out: Outcome
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Task representations and the engine's batched subsets for them."""
    reps = np.stack([pearson_representation(t.features, t.labels) for t in tasks])
    expected = BatchedGreedyEngine.from_model(model).select_representations(list(reps))
    n_features = reps.shape[1]
    budget = max(1, int(np.floor(model.config.env.max_feature_ratio * n_features)))
    out.problems.extend(check_subsets(expected, n_features, budget))
    return reps, expected


def percentile_ms(samples: list[float], q: float) -> dict[str, float]:
    """A percentile of second-valued samples, in ms, with its sample count."""
    if len(samples) == 0:
        return {"value": 0.0, "n": 0}
    return {"value": float(np.percentile(samples, q)) * 1e3, "n": len(samples)}


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------
def stamped_fit(
    workload: Workload,
    suite: TaskSuite,
    config: PAFeatConfig,
    out: Outcome,
    set_up_only: bool = False,
    rec: Recorder | None = None,
) -> tuple[PAFeat, dict[str, Any]]:
    """One ``PAFeat(config).fit(suite)``, timed iteration by iteration.

    ``fit`` polls ``stop_check`` after every iteration, best-policy scoring
    included, and starts the next one when it returns False.  This one
    times the iteration that just ended, and stops the fit after set-up if
    ``set_up_only``.  Set-up is the call
    up to the end of iteration 1: classifier pretraining, environments and
    iteration 1; it goes to ``out.setup``.  Every later iteration goes to
    ``out.latency``, in blocks of :data:`PROBE_ITERATIONS`; the reference
    loop runs inside ``stop_check``, between iterations.  With ``rec`` the
    set-up layers are traced, and the timed layers from the end of
    set-up, under a :data:`ROOT` span that ends with the last iteration.

    Returns the model and a dict: the trainer's fingerprint and ITE
    counters at the end of set-up, and the seconds of each timed iteration.
    """
    model = PAFeat(config)
    info: dict[str, Any] = {"iterations_s": []}
    pending: list[float] = []  # timed iterations not yet filed
    resumed = 0.0  # when the current iteration started
    with ExitStack() as stack:

        def stop_check() -> bool:
            nonlocal resumed
            now = monotonic()
            if "fingerprint" not in info:  # iteration 1 ended: set-up done
                out.setup.block([now - start])
                info["fingerprint"] = fingerprint(model.trainer)
                info["ite"] = (
                    model.explorer.customised_starts,
                    model.explorer.invocations,
                )
                if set_up_only:
                    return True
                if rec is not None:
                    install_timed(stack, rec, model)
                    info["token"] = rec.open()
                out.latency.mark()
            else:
                info["iterations_s"].append(now - resumed)
                pending.append(now - resumed)
                done = len(info["iterations_s"]) + 1
                if rec is not None and done == workload.iterations:
                    rec.close(info["token"], ROOT)
                if len(pending) == PROBE_ITERATIONS:
                    out.latency.block(pending)
                    pending.clear()
            resumed = monotonic()
            return False

        if rec is not None:
            install_setup(stack, rec, model)
        out.setup.mark()
        start = monotonic()
        try:
            model.fit(
                suite,
                n_iterations=workload.iterations,
                rollout_workers=1,
                stop_check=stop_check,
            )
        except TrainingInterrupted:
            if not set_up_only:
                raise
        if pending:
            out.latency.block(pending)
    return model, info


def set_ups(
    workload: Workload,
    suite: TaskSuite,
    config: PAFeatConfig,
    out: Outcome,
    count: int,
    rec: Recorder | None = None,
) -> set[str]:
    """``count`` fits stopped after set-up; their trainers' fingerprints."""
    return {
        stamped_fit(workload, suite, config, out, set_up_only=True, rec=rec)[1][
            "fingerprint"
        ]
        for _ in range(count)
    }


def fit_unit(
    workload: Workload,
    seed: int,
    out: Outcome,
    rec: Recorder | None = None,
) -> dict[str, Any]:
    """One default fit of the input drawn from ``seed``, checked.

    With the default config the timed part is iterations 2 to 200, with
    best-policy scoring at 10, 20, ..., 200.
    """
    suite, config = make_suite(workload, seed), make_config(seed)
    model, info = stamped_fit(workload, suite, config, out, rec=rec)
    trainer = model.trainer
    timed = len(info["iterations_s"]) + 1
    if not len(trainer.history) == timed == workload.iterations:
        out.problems.append(
            f"{len(trainer.history)} iterations ran and {timed} were timed, "
            f"not {workload.iterations}"
        )
    episodes = sum(stats.episodes for stats in trainer.history)
    if episodes != workload.iterations * config.episodes_per_iteration:
        out.problems.append(f"{episodes} episodes for {workload.iterations} iterations")
    unit_fingerprint = fingerprint(trainer)
    # After the fingerprint: greedy scoring advances the action count.
    score = trainer.greedy_seen_score()
    if not -config.env.size_penalty <= score <= 1.0:
        out.problems.append(f"greedy seen-task score {score} out of range")
    train_s = float(sum(info["iterations_s"]))
    customised = model.explorer.customised_starts - info["ite"][0]
    invocations = model.explorer.invocations - info["ite"][1]
    if train_s > 0:
        out.rates.append(len(info["iterations_s"]) / train_s)
    out.attempted += len(info["iterations_s"])
    return {
        "train_s": train_s,
        "setup_fingerprint": info["fingerprint"],
        "fingerprint": unit_fingerprint,
        "greedy_seen_score": score,
        "customised_ratio": customised / invocations if invocations else 0.0,
    }


def run_fit(
    workload: Workload, seed: int, seconds: float, traced: bool = False
) -> Outcome:
    out = Outcome(probe=not traced)
    first = unit_seed(seed, 0)
    if traced:
        out.recorder = Recorder()
        units = [fit_unit(workload, first, out)]
        units.append(fit_unit(workload, first, out, rec=out.recorder))
        out.untraced_cost, out.traced_cost = units[0]["train_s"], units[1]["train_s"]
        out.customised_ratio = units[1]["customised_ratio"]
        if units[0]["fingerprint"] != units[1]["fingerprint"]:
            out.problems.append("tracing changed the trainer fingerprint")
    else:
        prints = set_ups(
            workload, make_suite(workload, first), make_config(first), out, SETUPS - 1
        )
        start = monotonic()
        units = []
        while not units or monotonic() - start < seconds:
            units.append(fit_unit(workload, unit_seed(seed, len(units)), out))
        prints.add(units[0]["setup_fingerprint"])
        if len(prints) != 1:
            out.problems.append(f"{SETUPS} identical set-ups gave {len(prints)} trainers")
    out.diagnostics = {
        "units": len(units),
        "iter_ms.p95": percentile_ms(out.latency.raw_s, 95),
        "train_s": [unit["train_s"] for unit in units],
        "fingerprint": [unit["fingerprint"] for unit in units],
        "greedy_seen_score": [unit["greedy_seen_score"] for unit in units],
    }
    return out


# ----------------------------------------------------------------------
# select
# ----------------------------------------------------------------------
def select_unit(
    model: PAFeat,
    tasks: list[Task],
    order: np.ndarray,
    expected: list[tuple[int, ...]],
    out: Outcome,
    rec: Recorder | None,
) -> float:
    """Closed loop, one caller: ``order`` selects in a row; returns the wall.

    The wall leaves out the reference loop, timed every
    :data:`PROBE_SELECTS` selects."""
    results, samples = [], []
    token = rec.open() if rec is not None else None
    wall = 0.0
    for index in order:
        began = monotonic()
        results.append(model.select(tasks[index]))
        samples.append(monotonic() - began)
        wall += samples[-1]
        if len(samples) == PROBE_SELECTS:
            out.latency.block(samples)
            samples = []
    if samples:
        out.latency.block(samples)
    if rec is not None:
        rec.close(token, ROOT)
    out.rates.append(len(order) / wall)
    out.attempted += len(order)
    wrong = sum(result != expected[i] for result, i in zip(results, order))
    if wrong:
        out.problems.append(f"{wrong}/{len(order)} selects differ from the engine")
    return wall


def deployed_model(
    workload: Workload, out: Outcome, traced: bool
) -> tuple[PAFeat, TaskSuite]:
    """The model select and serve query, and the suite it was fitted on.

    ``setup_s`` is timed as on fit: :data:`SETUPS` fits stopped after
    set-up (one, traced, when ``traced``).  The model is then a plain,
    untimed ``fit`` of ``workload.iterations``; the fit workload times
    training.
    """
    suite, config = make_suite(workload, MODEL_SEED), make_config(MODEL_SEED)
    if traced:
        out.recorder = Recorder()
        prints = set_ups(workload, suite, config, out, 1, out.recorder)
    else:
        prints = set_ups(workload, suite, config, out, SETUPS)
    if len(prints) != 1:
        out.problems.append(f"{SETUPS} identical set-ups gave {len(prints)} trainers")
    model = PAFeat(config)
    model.fit(suite, n_iterations=workload.iterations, rollout_workers=1)
    return model, suite


def run_select(
    workload: Workload, seed: int, seconds: float, traced: bool = False
) -> Outcome:
    # A select is single-row inference: encode, then small matrix-vector
    # Q forwards.  Scaled by the small-array part of the loop, the median
    # select spread 2.1% and 3.7% over two sets of 10 runs, against 7.4%
    # and 5.7% by the whole loop.
    out = Outcome(probe=not traced, latency_parts=("small_arrays",))
    model, suite = deployed_model(workload, out, traced)
    tasks = list(bootstrap_tasks(suite, workload.pool, seed))
    _, expected = expected_subsets(model, tasks, out)
    # A unit asks every pool task once.
    order = np.random.default_rng([seed, 2]).permutation(len(tasks))

    out.latency.mark()
    units = 0
    if traced:
        out.untraced_cost = select_unit(model, tasks, order, expected, out, None)
        with ExitStack() as stack:
            install_timed(stack, out.recorder, model)
            out.traced_cost = select_unit(
                model, tasks, order, expected, out, out.recorder
            )
        units = 2
    else:
        start = monotonic()
        while units < 1 or monotonic() - start < seconds:
            select_unit(model, tasks, order, expected, out, None)
            units += 1
    out.diagnostics = {
        "units": units,
        "select_ms.p99": percentile_ms(out.latency.raw_s, 99),
        "select_total_s": len(order) / float(np.median(out.rates)),
    }
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Samples of one serve load phase."""

    latency_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    done_at: list[float] = field(default_factory=list)
    sent: int = 0
    shed: int = 0
    errors: list[str] = field(default_factory=list)
    wrong: int = 0
    start: float = 0.0

    def rates(self, duration: float) -> list[float]:
        """Responses per second over :data:`SAT_WINDOWS` equal shares of the
        responses that came back within ``duration`` of the phase start."""
        done = np.sort([t for t in self.done_at if t <= self.start + duration])
        # times[i]: when the i-th response came back; times[0]: phase start
        times = np.concatenate(([self.start], done))
        bounds = np.linspace(0, len(done), SAT_WINDOWS + 1).astype(int)
        return [
            float((b1 - b0) / (times[b1] - times[b0]))
            for b0, b1 in zip(bounds[:-1], bounds[1:])
        ]


async def request(
    batcher: MicroBatcher,
    payload: np.ndarray,
    expected: tuple[int, ...],
    due: float,
    phase: Phase,
    submitted: dict[int, float] | None,
) -> None:
    """Submit one request; latency runs from ``due`` to the response."""
    phase.sent += 1
    if submitted is not None:
        submitted[id(payload)] = monotonic()
    try:
        subset = await batcher.submit(payload)
    except QueueFull:
        phase.shed += 1
        if submitted is not None:
            submitted.pop(id(payload), None)
        return
    except Exception as exc:  # counted as failed; the load keeps going
        phase.errors.append(repr(exc))
        return
    now = monotonic()
    phase.latency_s.append(now - due)
    phase.done_at.append(now)
    if subset != expected:
        phase.wrong += 1


async def open_loop(
    batcher: MicroBatcher,
    reps: np.ndarray,
    expected: list[tuple[int, ...]],
    arrivals: np.ndarray,
    indices: np.ndarray,
    submitted: dict[int, float] | None,
) -> Phase:
    """Send on a precomputed schedule, whether or not replies are back."""
    phase = Phase(start=monotonic())
    sent = []
    for offset, index in zip(arrivals, indices):
        due = phase.start + offset
        delay = due - monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late_s.append(monotonic() - due)
        sent.append(
            asyncio.create_task(
                request(batcher, reps[index], expected[index], due, phase, submitted)
            )
        )
    await asyncio.gather(*sent)
    return phase


async def closed_loop(
    batcher: MicroBatcher,
    reps: np.ndarray,
    expected: list[tuple[int, ...]],
    rounds: list[np.ndarray],
    duration: float,
    submitted: dict[int, float] | None,
    host: HostSpeed,
) -> Phase:
    """Callers in lockstep: each sends one request of a round, and the next
    round starts when every reply is back.  The rounds cycle, so each is
    sent many times, as the same batches.

    A round's sample for ``host`` is its requests' mean latency.  Their
    median would not do: a round of 128 flushes two batches of 64, so half
    its requests wait for one kernel call and half for two, and the median
    request falls in the gap between the two.  Every :data:`PROBE_ROUNDS`
    rounds, with no request outstanding, the samples go to ``host``."""
    phase = Phase(start=monotonic())
    end = phase.start + duration
    sent = 0
    pending: list[float] = []
    host.mark()
    while monotonic() < end:
        due = monotonic()
        before = len(phase.latency_s)
        await asyncio.gather(
            *(
                request(batcher, reps[i], expected[i], due, phase, submitted)
                for i in rounds[sent % len(rounds)]
            )
        )
        if len(phase.latency_s) > before:
            pending.append(float(np.mean(phase.latency_s[before:])))
        sent += 1
        if sent % PROBE_ROUNDS == 0:
            host.block(pending)
            pending = []
    if pending:
        host.block(pending)
    return phase


async def serve_phases(
    handler: Any,
    reps: np.ndarray,
    expected: list[tuple[int, ...]],
    schedule: dict[str, Any],
    submitted: dict[int, float] | None,
    host: HostSpeed,
) -> dict[str, Phase]:
    batcher = MicroBatcher(handler, **SERVER_DEFAULTS)
    await batcher.start()
    try:
        phases = {}
        for name in ("lo", "hi"):
            arrivals, indices = schedule[name]
            phases[name] = await open_loop(
                batcher, reps, expected, arrivals, indices, submitted
            )
        rounds, duration = schedule["sat"]
        phases["sat"] = await closed_loop(
            batcher, reps, expected, rounds, duration, submitted, host
        )
    finally:
        await batcher.drain()
    return phases


def serve_schedule(
    workload: Workload, seconds: float, pool: int, seed: int
) -> dict[str, Any]:
    """Poisson arrival offsets and pool indices for every phase."""
    rng = np.random.default_rng([seed, 3])
    lo_s, hi_s, sat_s = (share * seconds for share in SERVE_SHARES)
    schedule: dict[str, Any] = {}
    for name, rate, duration in (
        ("lo", workload.lo_rate, lo_s),
        ("hi", workload.hi_rate, hi_s),
    ):
        gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < duration]
        schedule[name] = (arrivals, rng.integers(0, pool, size=len(arrivals)))
    # The gated phase: rounds of ``callers`` requests cut from passes over
    # the pool in seed-drawn orders, so every task is asked equally often.
    # A round's cost depends on its tasks; the median over 4 rounds moved
    # by ±4% with the seed.
    order = np.concatenate([rng.permutation(pool) for _ in range(workload.passes)])
    rounds = np.array_split(order, max(1, len(order) // workload.callers))
    schedule["sat"] = (rounds, sat_s)
    return schedule


def serve_unit(
    engine: BatchedGreedyEngine,
    reps: np.ndarray,
    expected: list[tuple[int, ...]],
    schedule: dict[str, Any],
    out: Outcome,
    rec: Recorder | None,
) -> dict[str, Phase]:
    submitted: dict[int, float] | None = None
    handler = engine.select_representations
    if rec is not None:
        submitted = {}
        handler = rec.wrap_handler(handler, submitted)
    phases = asyncio.run(
        serve_phases(handler, reps, expected, schedule, submitted, out.latency)
    )
    for name, phase in phases.items():
        out.attempted += phase.sent
        out.failed += phase.shed + len(phase.errors)
        if phase.wrong:
            out.problems.append(
                f"{phase.wrong} {name} responses differ from the engine's subsets"
            )
        if phase.errors:
            out.diagnostics.setdefault("errors", []).extend(phase.errors[:5])
    return phases


def run_serve(
    workload: Workload, seed: int, seconds: float, traced: bool = False
) -> Outcome:
    out = Outcome(probe=not traced)
    model, suite = deployed_model(workload, out, traced)
    tasks = bootstrap_tasks(suite, workload.pool, seed)
    reps, expected = expected_subsets(model, tasks, out)
    # A traced run serves twice, untraced then traced, in the same time.
    unit_s = seconds / 2 if traced else seconds
    schedule = serve_schedule(workload, unit_s, len(reps), seed)

    sat_s = schedule["sat"][1]
    engine = BatchedGreedyEngine.from_model(model)
    phases = serve_unit(engine, reps, expected, schedule, out, None)
    if traced:
        out.untraced_cost = 1.0 / float(np.median(phases["sat"].rates(sat_s)))
        with ExitStack() as stack:
            install_timed(stack, out.recorder, model, engine)
            phases = serve_unit(engine, reps, expected, schedule, out, out.recorder)
        out.traced_cost = 1.0 / float(np.median(phases["sat"].rates(sat_s)))
    # Gate the closed loop: over 10 seeded runs on a 2-vCPU VM the
    # open-loop medians spread 16-20% (interquartile over median).  In the
    # open loop small timing changes reorder which requests share a batch;
    # the lockstep rounds flush the same batches every time.
    out.rates = phases["sat"].rates(sat_s)
    out.diagnostics.update(
        {
            "serve_lo_ms.p50": percentile_ms(phases["lo"].latency_s, 50),
            "serve_lo_ms.p99": percentile_ms(phases["lo"].latency_s, 99),
            "serve_hi_ms.p50": percentile_ms(phases["hi"].latency_s, 50),
            "serve_hi_ms.p99": percentile_ms(phases["hi"].latency_s, 99),
            "serve_hi_late_ms.p99": percentile_ms(phases["hi"].late_s, 99),
            "serve_sat_ms.p99": percentile_ms(phases["sat"].latency_s, 99),
            "sent": {name: phase.sent for name, phase in phases.items()},
            "shed": {name: phase.shed for name, phase in phases.items()},
        }
    )
    return out


RUNNERS = {"fit": run_fit, "select": run_select, "serve": run_serve}
