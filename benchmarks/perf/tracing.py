"""Per-layer attribution, timed from outside the program.

The harness never edits ``src/``: it replaces public callables with thin
wrappers that record one span per call, ``(id, name, parent, start, end)``,
into an in-memory list.  Nothing is written until the run ends; then
:meth:`Recorder.write_jsonl` emits the list in the record schema of
:mod:`repro.obs.trace`, so :func:`repro.obs.trace.read_trace` loads it.

Where the object exists before the timed part starts the wrapper goes on
the instance (``trainer.task_sampler``, ``env.reward_fn``,
``model.classifiers[t].score``); where the program creates the object
inside a call it goes on the class or module attribute the call looks up
(``FeatureSelectionEnv.encode``, ``repro.serve.engine.batched_greedy_subsets``).
Every patch is undone when the :class:`contextlib.ExitStack` it was
registered on closes, so one process can run untraced and traced passes.
"""

from __future__ import annotations

import functools
import json
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable

import repro.core.feat as feat
import repro.core.pafeat as pafeat
import repro.serve.engine as serve_engine
from repro.core.env import FeatureSelectionEnv
from repro.nn.classifier import MaskedMLPClassifier
from repro.obs.clock import monotonic
from repro.rl.replay import ReplayBuffer

#: The layers a traced run reports, each as ``<layer>.self_s`` and
#: ``<layer>.calls``.  The comment names the workload where the layer should
#: weigh most; README.md maps each layer to the end-to-end metric it moves.
LAYERS = (
    "nn.classifier.score",  # reward miss: classifier forward + AUC (fit)
    "rl.reward.miss",
    "rl.reward.hit",
    "core.env.encode",  # state encoder (select_wide, fit_narrow)
    "rl.agent.q_values",  # single-row and batched Q forward
    "rl.agent.act",
    "rl.agent.update",  # backward + Adam (fit_narrow)
    "rl.agent.compute_targets",
    "rl.replay.sample",
    "core.its.sample_task",
    "core.ite.initial_state",
    "core.ite.record",
    "core.env.step",
    "core.env.reset_to",
    "core.feat.run_episode",
    "core.feat.commit_episode",
    "core.feat.buffer_filling",
    "core.feat.train_iteration",
    "core.pafeat.checkpoint_scorer",  # best-policy kernel-F1 scoring (fit_*)
    "nn.classifier.fit",  # set-up only
    "core.pafeat.fit",  # set-up only
    "data.stats.pearson_representation",
    "core.feat.greedy_subset",
    "core.pafeat.select",
    "core.batch.batched_greedy_subsets",  # serve kernel
    "rl.agent.act_batch",
    "serve.engine.select_representations",  # one call per batcher flush
    "serve.batcher.queue_wait",  # submit -> flush start, one span per request
)

#: Ratios the traced run derives from the spans and program counters.
RATIOS = {
    "rl.reward.hit_ratio": "ratio",
    "core.ite.customised_ratio": "ratio",
    "serve.batch.mean_size": "requests",
    "core.feat.fill_episodes_per_s": "1/s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: The span the harness opens around the timed part of fit and select.
ROOT = "bench.timed"
#: Minimum share of the timed wall (fit, select) or of the flush time
#: (serve) that the named layers must explain.
MIN_COVERAGE = 0.90


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(RATIOS)
    return units


class Recorder:
    """In-memory span list with a call stack for parent links."""

    def __init__(self, clock: Callable[[], float] = monotonic) -> None:
        self.clock = clock
        self.epoch = clock()
        #: finished spans as ``(span_id, name, parent_id, start, end)``
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 1

    def open(self) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, self.clock()

    def close(self, token: tuple[int, int | None, float], name: str) -> None:
        end = self.clock()
        self._stack.pop()
        span_id, parent, start = token
        self.spans.append((span_id, name, parent, start, end))

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured elsewhere (a wait, not a call); no parent."""
        span_id = self._next_id
        self._next_id += 1
        self.spans.append((span_id, name, None, start, end))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token, name)

        return traced

    def wrap_reward(self, reward_fn: Any) -> Callable[..., Any]:
        """Reward calls split into cache hits and misses by the hits delta."""

        def traced(subset: Any) -> Any:
            hits = reward_fn.hits
            token = self.open()
            try:
                return reward_fn(subset)
            finally:
                hit = reward_fn.hits > hits
                self.close(token, "rl.reward.hit" if hit else "rl.reward.miss")

        return traced

    def wrap_handler(
        self, handler: Callable[[list[Any]], Any], submitted: dict[int, float]
    ) -> Callable[[list[Any]], Any]:
        """A batcher handler that first records each payload's queue wait.

        ``submitted`` maps ``id(payload)`` to the time the load generator
        submitted it; the flush starts when the batcher calls the handler.
        """

        def traced(payloads: list[Any]) -> Any:
            now = self.clock()
            for payload in payloads:
                self.record(
                    "serve.batcher.queue_wait", submitted.pop(id(payload)), now
                )
            return handler(payloads)

        return traced

    def write_jsonl(self, path: Path, run_id: str) -> None:
        """Write the spans in the :mod:`repro.obs.trace` record schema."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, parent, start, end in self.spans:
                record = {
                    "trace": run_id,
                    "span": span_id,
                    "parent": parent,
                    "name": name,
                    "start_s": round(start - self.epoch, 9),
                    "duration_s": round(end - start, 9),
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def patch(stack: ExitStack, owner: Any, attr: str, replacement: Any) -> None:
    """Set ``owner.attr`` until ``stack`` closes, then restore it.

    An attribute found on the instance itself is put back; one inherited
    from the class is deleted again so lookup falls through as before.
    """
    if attr in vars(owner):
        stack.callback(setattr, owner, attr, vars(owner)[attr])
    else:
        stack.callback(delattr, owner, attr)
    setattr(owner, attr, replacement)


def wrap_attr(
    stack: ExitStack, rec: Recorder, owner: Any, attr: str, name: str
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper of itself."""
    patch(stack, owner, attr, rec.wrap(name, getattr(owner, attr)))


def install_setup(stack: ExitStack, rec: Recorder, model: Any) -> None:
    """Layers of set-up: classifier pretraining and the rest of ``fit``."""
    wrap_attr(stack, rec, MaskedMLPClassifier, "fit", "nn.classifier.fit")
    wrap_attr(stack, rec, model, "fit", "core.pafeat.fit")


def install_timed(
    stack: ExitStack, rec: Recorder, model: Any, engine: Any = None
) -> None:
    """Layers of the timed part, on a model with a trainer and its classes.

    Fit workloads call this from ``fit``'s ``stop_check`` after iteration 1,
    so the rest of that fit runs through the wrappers.

    ``engine`` is the serving engine whose ``select_representations`` the
    batcher will be handed; the batcher must be built after this call.
    """
    for attr, name in (
        ("encode", "core.env.encode"),
        ("step", "core.env.step"),
        ("reset_to", "core.env.reset_to"),
    ):
        # Class attributes: PAFeat.select builds a fresh env per call.
        wrap_attr(stack, rec, FeatureSelectionEnv, attr, name)
    wrap_attr(stack, rec, ReplayBuffer, "sample", "rl.replay.sample")
    wrap_attr(stack, rec, feat, "greedy_subset", "core.feat.greedy_subset")
    wrap_attr(
        stack, rec, pafeat, "pearson_representation",
        "data.stats.pearson_representation",
    )
    wrap_attr(
        stack, rec, serve_engine, "batched_greedy_subsets",
        "core.batch.batched_greedy_subsets",
    )
    wrap_attr(stack, rec, model, "select", "core.pafeat.select")

    agent = model.inference_agent()
    for attr in ("q_values", "act", "act_batch", "update", "compute_targets"):
        wrap_attr(stack, rec, agent, attr, f"rl.agent.{attr}")

    trainer = model.trainer
    for attr, name in (
        ("task_sampler", "core.its.sample_task"),
        ("initial_state_provider", "core.ite.initial_state"),
        ("episode_end_hook", "core.ite.record"),
        ("checkpoint_scorer", "core.pafeat.checkpoint_scorer"),
        ("run_episode", "core.feat.run_episode"),
        ("commit_episode", "core.feat.commit_episode"),
        ("buffer_filling", "core.feat.buffer_filling"),
        ("train_iteration", "core.feat.train_iteration"),
    ):
        wrap_attr(stack, rec, trainer, attr, name)
    for env in trainer.envs.values():
        patch(stack, env, "reward_fn", rec.wrap_reward(env.reward_fn))
    for classifier in model.classifiers.values():
        wrap_attr(stack, rec, classifier, "score", "nn.classifier.score")
    if engine is not None:
        wrap_attr(
            stack, rec, engine, "select_representations",
            "serve.engine.select_representations",
        )


def layer_totals(
    spans: list[tuple[int, str, int | None, float, float]],
) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    Self time is a span's duration minus the durations of its children;
    wrapped calls nest strictly, so children never overlap each other.
    """
    child_s: dict[int, float] = {}
    for _, _, parent, start, end in spans:
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    totals: dict[str, dict[str, float]] = {}
    for span_id, name, _, start, end in spans:
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_s.get(span_id, 0.0)
    return totals


def coverage(totals: dict[str, dict[str, float]], kind: str) -> float:
    """Share of the timed wall (or, for serve, flush time) the layers explain."""
    outer = "serve.engine.select_representations" if kind == "serve" else ROOT
    entry = totals.get(outer)
    if not entry or entry["total_s"] <= 0:
        return 0.0
    return 1.0 - entry["self_s"] / entry["total_s"]
