"""PA-FEAT facade: the library's main entry point.

Wires together the pretrained reward classifiers, per-task environments,
the Dueling-DQN agent, the Inter-Task Scheduler and the Intra-Task Explorer
into the three-phase lifecycle of the paper:

* :meth:`PAFeat.fit` — generalise feature-selection knowledge across the
  seen tasks of a :class:`~repro.data.tasks.TaskSuite` (Algorithm 1).
* :meth:`PAFeat.select` — *fast* feature selection for an unseen task: one
  greedy episode, no training (Algorithm 1 lines 22-24), run by the
  lockstep kernel of :mod:`repro.core.batch` at B=1.
* :meth:`PAFeat.further_train` — optional extra on-task training when the
  time budget allows (paper Section IV-D).

Ablation switches (``use_its``, ``use_ite``,
``ite.use_policy_exploitation``) reproduce the Table III variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from repro.errors import DataValidationError, NotFittedError

from repro.core.batch import batched_greedy_subsets, served_subsets
from repro.core.config import AgentConfig, ClassifierConfig, PAFeatConfig
from repro.core.env import FeatureSelectionEnv
from repro.core.feat import FEATTrainer, UniformTaskSampler
from repro.core.ite import IntraTaskExplorer
from repro.core.its import InterTaskScheduler
from repro.core.state import state_dim
from repro.data.stats import feature_redundancy_matrix, pearson_representation
from repro.data.tasks import Task, TaskSuite
from repro.eval.metrics import binary_labels
from repro.nn.classifier import MaskedMLPClassifier
from repro.obs.telemetry import TelemetryWriter
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rl.agent import DuelingDQNAgent
from repro.rl.reward import RewardFunction, build_task_rewards
from repro.rl.schedules import LinearDecay


def build_agent(
    config: AgentConfig,
    n_features: int,
    rng: np.random.Generator,
    agent_class: type[DuelingDQNAgent] = DuelingDQNAgent,
) -> DuelingDQNAgent:
    """The Dueling-DQN agent (Eqn. 1) for an ``n_features``-feature space.

    The one place an agent is built from an :class:`AgentConfig`: fits
    (with :attr:`PAFeat.agent_class`), SADRLFS and
    :func:`repro.io.load_model` all call it.  ``rng`` draws the initial
    weights of both networks, then the exploration stream.
    """
    return agent_class(
        state_dim=state_dim(n_features),
        n_actions=FeatureSelectionEnv.N_ACTIONS,
        hidden=config.hidden,
        gamma=config.gamma,
        lr=config.lr,
        epsilon_schedule=LinearDecay(
            config.epsilon_start, config.epsilon_end, config.epsilon_decay_steps
        ),
        target_sync_every=config.target_sync_every,
        rng=rng,
        grad_clip=config.grad_clip,
    )


def build_rewards(
    tasks: Sequence[Task],
    config: ClassifierConfig,
    metric: str,
    classifier_seeds: Sequence[int],
    split_seeds: Sequence[int],
) -> list[tuple[MaskedMLPClassifier, RewardFunction]]:
    """Pretrain each task's masked classifier and wrap it as its reward (Eqn. 2).

    The one place reward classifiers are built from a
    :class:`ClassifierConfig`.  ``classifier_seeds[k]`` seeds task ``k``'s
    classifier; ``split_seeds[k]`` draws its row split: the classifier fits
    on a train portion of the task's rows and the reward scores subsets
    with ``metric`` on the held-out rest, which keeps the landscape
    informative (see :func:`repro.rl.reward.build_task_rewards`).  The
    tasks share one feature table, so their classifiers pretrain in
    lockstep, each bit-identically to a lone pretraining.
    """
    if not tasks:
        raise ValueError("build_rewards needs at least one task")
    table = tasks[0].table
    if any(task.table is not table for task in tasks):
        raise ValueError("tasks whose rewards are built together must share one table")
    classifiers = [
        MaskedMLPClassifier(
            n_features=table.n_features,
            hidden=config.hidden,
            lr=config.lr,
            n_epochs=config.n_epochs,
            batch_size=config.batch_size,
            mask_augment=config.mask_augment,
            seed=seed,
        )
        for seed in classifier_seeds
    ]
    reward_fns = build_task_rewards(
        table.features,
        [task.labels for task in tasks],
        classifiers,
        split_seeds,
        metric=metric,
    )
    return list(zip(classifiers, reward_fns))


@dataclass
class FurtherTrainRecord:
    """One checkpoint of the further-training curve (paper Fig. 9)."""

    iteration: int
    subset: tuple[int, ...]
    score: float


class PAFeat:
    """Progress-aware multi-task DRL feature selector.

    ``agent_class`` is the agent :meth:`fit` builds; the FEAT-based
    baselines that change the learner (PopArt) set it.
    """

    agent_class: type[DuelingDQNAgent] = DuelingDQNAgent

    def __init__(self, config: PAFeatConfig | None = None) -> None:
        self.config = config or PAFeatConfig()
        self._seed_sequence = np.random.SeedSequence(self.config.seed)
        self._rng = np.random.default_rng(self._seed_sequence.spawn(1)[0])
        self.trainer: FEATTrainer | None = None
        self.explorer: IntraTaskExplorer | None = None
        self.scheduler: InterTaskScheduler | None = None
        self.reward_fns: dict[int, RewardFunction] = {}
        self.classifiers: dict[int, MaskedMLPClassifier] = {}
        self._suite: TaskSuite | None = None
        self._n_features: int | None = None
        self._feature_corr: "np.ndarray | None" = None
        self._loaded_agent = None  # populated by repro.io.load_model

    # ------------------------------------------------------------------
    # Training on seen tasks
    # ------------------------------------------------------------------
    def fit(
        self,
        suite: TaskSuite,
        n_iterations: int | None = None,
        *,
        checkpoint_dir: "str | Path | None" = None,
        checkpoint_every: int | None = None,
        keep_last: int = 3,
        resume: bool = False,
        stop_check: "Callable[[], bool] | None" = None,
        rollout_workers: int = 1,
        telemetry: "str | Path | TelemetryWriter | None" = None,
    ) -> "PAFeat":
        """Generalise knowledge from the suite's seen tasks (Algorithm 1).

        Argument checks, every seen task's labels being binary among
        them, run before fit touches the model, so a rejected call leaves
        an already-fitted model as it was.
        ``rollout_workers`` accepts only ``1``: the Buffer Filling Phase
        runs its episodes serially (ARCHITECTURE §10).  The keyword is
        kept for existing callers.

        Crash safety: with ``checkpoint_dir`` set, the complete training
        state (networks, optimizer, replay buffers, ITS/ITE statistics,
        RNG streams, best-snapshot-so-far) is flushed atomically every
        ``checkpoint_every`` iterations (default: the config's
        ``checkpoint_every``), keeping the last ``keep_last`` checkpoints.
        With ``resume=True`` the deterministic setup (reward-classifier
        pretraining, environments) is rebuilt from the same seed, then the
        latest *valid* checkpoint — corrupt ones are detected and skipped —
        is restored and training continues from its iteration; the resumed
        run reproduces the uninterrupted run's RNG streams exactly.

        ``stop_check`` is polled once per iteration (e.g. a SIGTERM flag);
        when it returns True a final checkpoint is flushed and
        :class:`~repro.io.checkpoint.TrainingInterrupted` is raised.

        ``telemetry`` enables the training telemetry stream (ARCHITECTURE
        §11): pass a directory and fit writes per-episode/per-iteration
        events to ``events.jsonl`` plus a span trace to ``trace.jsonl``
        there (``repro obs summarize <dir>`` renders the run report), or
        pass a :class:`~repro.obs.telemetry.TelemetryWriter` to share a
        sink the caller owns; fit then writes ``trace.jsonl`` beside its
        events, under the writer's run id, and leaves the writer open.
        The iteration events' phase fractions are computed from the
        trace's spans.  Telemetry is strictly observational: it consumes
        no RNG and the trained model is bit-identical with it on or off.
        """
        if not suite.seen_tasks:
            raise DataValidationError("suite has no seen tasks to learn from")
        for task in suite.seen_tasks:
            binary_labels(task.labels, f"labels of seen task {task.name!r}")
        config = self.config
        total = n_iterations if n_iterations is not None else config.n_iterations
        if total < 1:
            raise ValueError(f"n_iterations must be >= 1, got {total}")
        if rollout_workers != 1:
            raise ValueError(
                f"rollout_workers must be 1 (episodes run serially), "
                f"got {rollout_workers}"
            )
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        manager = None
        if checkpoint_dir is not None:
            from repro.io.checkpoint import CheckpointManager

            # Built before any state changes: the constructor validates
            # keep_last.
            manager = CheckpointManager(checkpoint_dir, keep_last=keep_last)

        self._suite = suite
        self._n_features = suite.n_features
        # All tasks share one feature space, so the feature-feature |Pearson|
        # matrix (the redundancy signal in the state encoding) is computed once.
        self._feature_corr = feature_redundancy_matrix(suite.table.features)

        envs = {env.task_id: env for env in self._build_envs(suite.seen_tasks)}
        all_features_scores = {
            task_id: env.reward_fn.all_features_score for task_id, env in envs.items()
        }
        agent = build_agent(
            config.agent,
            suite.n_features,
            np.random.default_rng(self._seed_sequence.spawn(1)[0]),
            self.agent_class,
        )
        task_ids = sorted(envs)

        task_sampler = UniformTaskSampler(task_ids)
        if config.use_its:
            self.scheduler = InterTaskScheduler(
                task_ids, all_features_scores, suite.n_features, config.its
            )
            task_sampler = self.scheduler.sample_task

        initial_state_provider = None
        episode_end_hook = None
        restart_policy = "learned"
        if config.use_ite:
            self.explorer = IntraTaskExplorer(
                suite.n_features,
                config.ite,
                np.random.default_rng(self._seed_sequence.spawn(1)[0]),
            )
            initial_state_provider = self.explorer.initial_state
            episode_end_hook = self.explorer.record
            if not config.ite.use_policy_exploitation:
                restart_policy = "random"

        trainer_kwargs = {
            "task_sampler": task_sampler,
            "initial_state_provider": initial_state_provider,
            "episode_end_hook": episode_end_hook,
            "restart_policy": restart_policy,
            "checkpoint_scorer": self._build_checkpoint_scorer(suite),
        }
        # Subclasses (the FEAT-based baselines) can override any hook.
        trainer_kwargs.update(self._extra_trainer_kwargs())
        self.trainer = FEATTrainer(
            envs,
            agent,
            config,
            np.random.default_rng(self._seed_sequence.spawn(1)[0]),
            **trainer_kwargs,
        )

        start_iteration = 0
        if manager is not None and resume:
            loaded = manager.latest_valid()
            if loaded is not None:
                self._restore_training_state(loaded.meta, loaded.arrays)
                start_iteration = loaded.iteration

        iteration_hook = None
        if manager is not None or stop_check is not None:
            every = max(
                1,
                checkpoint_every
                if checkpoint_every is not None
                else config.checkpoint_every,
            )

            def iteration_hook(global_iteration: int) -> None:
                from repro.io.checkpoint import TrainingInterrupted

                stopping = stop_check is not None and stop_check()
                path = None
                if manager is not None and (
                    stopping or global_iteration % every == 0 or global_iteration >= total
                ):
                    meta, arrays = self._capture_training_state()
                    path = manager.save(global_iteration, meta, arrays)
                if stopping:
                    raise TrainingInterrupted(global_iteration, path)

        # Observability wiring (ARCHITECTURE §11.4): the caller's writer or
        # an owned one for a directory, a span trace beside its events, and
        # the progress probe.  Attached after the set-up and the restore,
        # whose failures would otherwise leave them attached with files
        # open, and inside the try, whose finally detaches and closes them.
        writer: "TelemetryWriter | None" = None
        tracer = NULL_TRACER
        try:
            if telemetry is not None:
                if isinstance(telemetry, TelemetryWriter):
                    writer = telemetry
                else:
                    writer = TelemetryWriter(
                        telemetry, run_id=f"fit-seed{config.seed}"
                    )
                tracer = Tracer(
                    writer.directory / "trace.jsonl", run_id=writer.run_id
                )
                self.trainer.telemetry = writer
                self.trainer.tracer = tracer
                if self.scheduler is not None:
                    self.trainer.telemetry_probe = self._progress_probe
                writer.emit(
                    "run_start",
                    seed=config.seed,
                    n_tasks=len(envs),
                    iterations=total,
                )
            remaining = total - start_iteration
            if remaining > 0:
                self.trainer.train(remaining, iteration_hook=iteration_hook)
            else:
                # The checkpoint already covers the requested horizon; just
                # finalise as train() would (best-policy restore).
                self.trainer.apply_best_snapshot()
            if writer is not None:
                # Only a completed fit gets a run_end event — its absence
                # is how `repro obs summarize` flags a crashed or
                # interrupted run.
                best = self.trainer._best_score
                end: dict = {
                    "iterations": len(self.trainer.history),
                    "episodes": sum(s.episodes for s in self.trainer.history),
                }
                if np.isfinite(best):
                    end["best_score"] = round(float(best), 6)
                writer.emit("run_end", **end)
        finally:
            if writer is not None:
                # Detach the hooks so post-fit training helpers never
                # write to a sink the caller may have closed.
                self.trainer.telemetry = None
                self.trainer.tracer = NULL_TRACER
                self.trainer.telemetry_probe = None
                tracer.close()
                if writer is not telemetry:
                    writer.close()
        return self

    # ------------------------------------------------------------------
    # Fast selection for unseen tasks
    # ------------------------------------------------------------------
    def select(self, task: Task) -> tuple[int, ...]:
        """Fast feature selection: one greedy episode on the unseen task.

        The task's label column (its training rows) is only used to build
        the Pearson task representation — no model training happens here,
        which is what makes the response "fast".  The episode is the
        lockstep kernel's (:mod:`repro.core.batch`) at B=1, so ``select``
        is side-effect free — the agent's action counter and RNG are left
        as they were — and breaks exact Q ties to the lowest action.  A
        cold policy that deselects everything gets the single
        most-correlated feature (:func:`repro.core.batch.served_subsets`).
        """
        agent = self.inference_agent()
        representations = [pearson_representation(task.features, task.labels)]
        subsets = batched_greedy_subsets(
            agent, representations, self.config.env,
            feature_corr=self._feature_corr,
        )
        return served_subsets(subsets, representations)[0]

    def select_all_unseen(
        self, suite: TaskSuite | None = None
    ) -> dict[str, tuple[int, ...]]:
        """Select subsets for every unseen task in the (fitted) suite.

        Runs all the unseen tasks' greedy episodes as one lockstep kernel
        call (:mod:`repro.core.batch`): one Q-forward per feature step for
        the whole batch instead of one per task per step, with the same
        answers as per-task :meth:`select`.
        """
        agent = self.inference_agent()
        suite = suite if suite is not None else self._suite
        if suite is None:
            raise NotFittedError("no suite available; call fit() first")
        tasks = list(suite.unseen_tasks)
        representations = [
            pearson_representation(task.features, task.labels) for task in tasks
        ]
        subsets = batched_greedy_subsets(
            agent, representations, self.config.env,
            feature_corr=self._feature_corr,
        )
        return {
            task.name: subset
            for task, subset in zip(tasks, served_subsets(subsets, representations))
        }

    # ------------------------------------------------------------------
    # Optional on-task refinement (paper Section IV-D)
    # ------------------------------------------------------------------
    def further_train(
        self,
        task: Task,
        n_iterations: int,
        checkpoint_every: int = 10,
    ) -> list[FurtherTrainRecord]:
        """Continue training on one unseen task under a larger time budget.

        Builds a reward environment for the task (pretraining its masked
        classifier), then runs additional FEAT iterations *only* on this
        task, starting from the already-generalised Q-network.  Returns the
        greedy-subset score curve.
        """
        if n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        trainer = self._require_fitted()
        if task.label_index not in trainer.envs:
            trainer.envs[task.label_index] = self._build_envs([task])[0]
        env = trainer.envs[task.label_index]
        task_ids = [task.label_index]

        records: list[FurtherTrainRecord] = []
        best_snapshot = trainer.agent.save_policy()
        # Seed "best so far" with the zero-shot result so refinement can
        # only improve on what fast selection already delivers.
        best_subset = trainer.greedy_subsets(task_ids)[task.label_index]
        if best_subset:
            zero_shot_score = env.reward_fn(best_subset)
            best_value = zero_shot_score - self.config.env.size_penalty * len(
                best_subset
            ) / max(1, env.n_features)
        else:
            best_value = -np.inf
        for iteration in range(n_iterations):
            trajectory = trainer.run_episode(task.label_index)
            trainer.registry.buffer(task.label_index).add_trajectory(trajectory)
            for _ in range(self.config.updates_per_iteration):
                trainer.update_round(task.label_index, self._rng)
            if (iteration + 1) % checkpoint_every == 0 or iteration == n_iterations - 1:
                subset = trainer.greedy_subsets(task_ids)[task.label_index]
                score = env.reward_fn(subset) if subset else 0.0
                # Anytime semantics: each checkpoint reports the best subset
                # found so far (shaped by the lean-subset penalty), and the
                # best-scoring policy snapshot is kept — a long refinement
                # run can therefore never end worse than it started.
                shaped = score - self.config.env.size_penalty * len(subset) / max(
                    1, env.n_features
                )
                if subset and shaped > best_value:
                    best_value = shaped
                    best_subset = subset
                    best_snapshot = trainer.agent.save_policy()
                report = best_subset or subset
                report_score = env.reward_fn(report) if report else 0.0
                records.append(
                    FurtherTrainRecord(
                        iteration=iteration + 1,
                        subset=report,
                        score=float(report_score),
                    )
                )
        trainer.agent.load_policy(best_snapshot)
        return records

    # ------------------------------------------------------------------
    # Durable checkpointing (crash/resume)
    # ------------------------------------------------------------------
    def _capture_training_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Full training state across trainer, explorer and scheduler."""
        from repro.io.checkpoint import nest, rng_state

        trainer = self._require_fitted()
        trainer_meta, trainer_arrays = trainer.capture_state()
        arrays = nest("trainer/", trainer_arrays)
        meta: dict = {
            "trainer": trainer_meta,
            "model_rng": rng_state(self._rng),
            "n_features": self._n_features,
        }
        if self.explorer is not None:
            explorer_meta, explorer_arrays = self.explorer.capture_state()
            meta["explorer"] = explorer_meta
            arrays |= nest("explorer/", explorer_arrays)
        if self.scheduler is not None:
            meta["scheduler"] = self.scheduler.capture_state()
        return meta, arrays

    def _restore_training_state(
        self, meta: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        """Restore a payload from :meth:`_capture_training_state`.

        Must be called after the deterministic :meth:`fit` setup has built
        the trainer/explorer/scheduler for the *same* suite and config; the
        restored state then overwrites their freshly initialised weights,
        buffers, statistics and RNG streams.
        """
        from repro.io.checkpoint import CheckpointError, set_rng_state, unnest

        trainer = self._require_fitted()
        if meta.get("n_features") != self._n_features:
            raise CheckpointError(
                f"checkpoint was taken on a {meta.get('n_features')}-feature "
                f"suite; this fit has {self._n_features} features"
            )
        trainer.restore_state(meta["trainer"], unnest("trainer/", arrays))
        set_rng_state(self._rng, meta["model_rng"])
        if "explorer" in meta:
            if self.explorer is None:
                raise CheckpointError(
                    "checkpoint contains ITE state but use_ite is disabled"
                )
            self.explorer.restore_state(meta["explorer"], unnest("explorer/", arrays))
        if "scheduler" in meta:
            if self.scheduler is None:
                raise CheckpointError(
                    "checkpoint contains ITS state but use_its is disabled"
                )
            self.scheduler.restore_state(meta["scheduler"])
        # A "rollout" entry, written by older releases' process-pool fits,
        # is ignored: it only keyed the pool's per-episode RNG streams.

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _progress_probe(self, task_id: int) -> dict:
        """Per-episode telemetry: the task's last ITS distance ratio.

        Read-only: also ranks that ratio among all seen tasks (the
        "progress quantile").
        """
        if self.scheduler is None:
            return {}
        progress = self.scheduler.last_progress
        mine = next(
            (p.distance_ratio for p in progress if p.task_id == task_id), None
        )
        if mine is None:
            return {}
        rank = sum(1 for p in progress if p.distance_ratio <= mine)
        return {
            "progress": round(float(mine), 6),
            "progress_q": round(rank / len(progress), 6),
        }

    def _extra_trainer_kwargs(self) -> dict:
        """Hook for FEAT-based baseline subclasses to override trainer hooks."""
        return {}

    def _build_checkpoint_scorer(
        self, suite: TaskSuite
    ) -> Callable[[dict[int, tuple[int, ...]]], float]:
        """Best-snapshot criterion: held-out kernel F1 on seen tasks.

        The RL reward (masked-classifier AUC) is a proxy for the eventual
        evaluation (a kernel classifier trained on the projected subset).
        Model selection uses the evaluation family directly — on *seen*
        tasks only, via an internal train/validation row split — so the
        kept snapshot is the one whose greedy subsets actually generalise,
        not the one that pushed the proxy furthest.  Memoised per subset
        because the greedy policy changes slowly between checkpoints.
        """
        from repro.eval.kernel import KernelRidgeClassifier
        from repro.eval.metrics import f1_score

        rng = np.random.default_rng(self._seed_sequence.spawn(1)[0])
        splits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for task in suite.seen_tasks:
            n = task.features.shape[0]
            permutation = rng.permutation(n)
            cut = max(1, int(0.75 * n))
            splits[task.label_index] = (permutation[:cut], permutation[cut:])
        tasks = {task.label_index: task for task in suite.seen_tasks}
        cache: dict[tuple[int, tuple[int, ...]], float] = {}

        def score_task(task_id: int, subset: tuple[int, ...]) -> float:
            key = (task_id, subset)
            if key in cache:
                return cache[key]
            task = tasks[task_id]
            fit_rows, val_rows = splits[task_id]
            idx = np.asarray(subset, dtype=np.int64)
            model = KernelRidgeClassifier(seed=0).fit(
                task.features[fit_rows][:, idx], task.labels[fit_rows]
            )
            predictions = model.predict(task.features[val_rows][:, idx])
            value = f1_score(task.labels[val_rows], predictions)
            cache[key] = value
            return value

        def scorer(subsets: dict[int, tuple[int, ...]]) -> float:
            # Ignore environments added after fit (e.g. by further_train):
            # model selection is defined over the original seen tasks.
            values = [
                score_task(task_id, subset) if subset else 0.0
                for task_id, subset in subsets.items()
                if task_id in tasks
            ]
            return float(np.mean(values)) if values else 0.0

        return scorer

    def _build_envs(self, tasks: Sequence[Task]) -> list[FeatureSelectionEnv]:
        """Pretrain the tasks' rewards, record them, and build their environments.

        The one environment constructor of :meth:`fit` (every seen task)
        and :meth:`further_train` (a task the trainer has no environment
        for).  Task ``k`` takes the model's seed sequence's next child, in
        order, as both its classifier seed and its row-split seed.
        """
        seeds = [
            int(self._seed_sequence.spawn(1)[0].generate_state(1)[0]) for _ in tasks
        ]
        rewards = build_rewards(
            tasks, self.config.classifier, self.config.env.reward_metric, seeds, seeds
        )
        envs = []
        for task, (classifier, reward_fn) in zip(tasks, rewards):
            self.classifiers[task.label_index] = classifier
            self.reward_fns[task.label_index] = reward_fn
            envs.append(
                FeatureSelectionEnv(
                    task.label_index,
                    pearson_representation(task.features, task.labels),
                    reward_fn,
                    self.config.env,
                    feature_corr=self._feature_corr,
                )
            )
        return envs

    def _require_fitted(self) -> FEATTrainer:
        if self.trainer is None:
            raise NotFittedError("model is not fitted; call fit() first")
        return self.trainer

    def inference_agent(self) -> DuelingDQNAgent:
        """The agent answering unseen tasks: the trainer's, or a loaded one."""
        if self.trainer is not None:
            return self.trainer.agent
        if self._loaded_agent is not None:
            return self._loaded_agent
        raise NotFittedError("model is not fitted; call fit() or repro.io.load_model()")
