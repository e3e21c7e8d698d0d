"""FEAT — the multi-task DRL framework (paper Algorithm 1).

One global Dueling-DQN agent interacts with per-seen-task environments:

1. *Buffer Filling Phase*: N rollout resources each pick a seen task (the
   ``task_sampler`` hook — uniform by default, ITS when enabled), obtain an
   initial state (the ``initial_state_provider`` hook — default start, or
   an ITE-customised state), roll an episode under epsilon-greedy and store
   the trajectory in the task's replay buffer.
2. *Parameter Updating Phase*: K rounds of minibatch Dueling-DQN updates,
   one batch per seen task per round.

Baselines from the paper that are "implemented under FEAT" plug into the
same hooks: PopArt swaps the agent, Go-Explore swaps the state provider and
uses a random restart policy, RR wraps the per-step reward.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.batch import batched_greedy_subsets
from repro.core.config import PAFeatConfig
from repro.core.env import FeatureSelectionEnv
from repro.core.state import EnvState
from repro.io.checkpoint import nest, rng_state, set_rng_state, unnest
from repro.obs.telemetry import TelemetryWriter
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rl.agent import DuelingDQNAgent
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.replay import ReplayRegistry
from repro.rl.trajectory import Trajectory

# Hook signatures.
TaskSampler = Callable[[ReplayRegistry, np.random.Generator], int]
InitialStateProvider = Callable[[int], EnvState]
RewardTransform = Callable[[int, float], float]


class UniformTaskSampler:
    """Algorithm 1 line 5 default: choose a seen task uniformly."""

    def __init__(self, task_ids: list[int]) -> None:
        if not task_ids:
            raise ValueError("need at least one task id")
        self.task_ids = list(task_ids)

    def __call__(self, registry: ReplayRegistry, rng: np.random.Generator) -> int:
        del registry  # uniform sampling ignores progress
        return self.task_ids[int(rng.integers(len(self.task_ids)))]


@dataclass
class IterationStats:
    """Per-iteration training telemetry."""

    iteration: int
    episodes: int
    mean_loss: float
    rewards_per_task: dict[int, float] = field(default_factory=dict)
    task_probabilities: dict[int, float] = field(default_factory=dict)


class FEATTrainer:
    """Drives Algorithm 1 over a set of per-task environments."""

    def __init__(
        self,
        envs: Mapping[int, FeatureSelectionEnv],
        agent: DuelingDQNAgent,
        config: PAFeatConfig,
        rng: np.random.Generator,
        task_sampler: TaskSampler | None = None,
        initial_state_provider: InitialStateProvider | None = None,
        episode_end_hook: Callable[[int, Trajectory, EnvState], None] | None = None,
        reward_transform: RewardTransform | None = None,
        restart_policy: str = "learned",
        checkpoint_scorer: Callable[[dict[int, tuple[int, ...]]], float] | None = None,
    ) -> None:
        if not envs:
            raise ValueError("FEATTrainer needs at least one environment")
        if restart_policy not in ("learned", "random"):
            raise ValueError(
                f"restart_policy must be 'learned' or 'random', got {restart_policy!r}"
            )
        self.envs = dict(envs)
        self.agent = agent
        self.config = config
        self._rng = rng
        buffer_factory = None
        if config.agent.prioritized_replay:
            buffer_factory = lambda capacity, window: PrioritizedReplayBuffer(
                capacity, trajectory_window=window
            )
        self.registry = ReplayRegistry(
            config.agent.replay_capacity,
            trajectory_window=config.its.trajectory_window,
            buffer_factory=buffer_factory,
        )
        self.task_sampler = task_sampler or UniformTaskSampler(sorted(self.envs))
        self.initial_state_provider = initial_state_provider
        self.episode_end_hook = episode_end_hook
        self.reward_transform = reward_transform
        self.restart_policy = restart_policy
        self.checkpoint_scorer = checkpoint_scorer
        self.history: list[IterationStats] = []
        # Best-snapshot tracking lives on the instance (not train() locals)
        # so it survives checkpoint/resume and spans multiple train() calls.
        self._best_score: float = -np.inf
        self._best_snapshot: dict[str, np.ndarray] | None = None
        # Observability hooks (wired by PAFeat.fit(telemetry=...)).  All
        # off by default; the telemetry stream is strictly observational —
        # it consumes no RNG and feeds nothing back into training state,
        # so enabling it leaves the run bit-identical (the parity gate in
        # benchmarks/bench_obs.py holds the contract).
        self.telemetry: TelemetryWriter | None = None
        self.tracer: Tracer = NULL_TRACER
        #: Optional per-episode enrichment hook: ``probe(task_id)`` returns
        #: extra event fields (e.g. the task's progress quantile from ITS).
        #: Must be read-only on trainer/scheduler state.
        self.telemetry_probe: Callable[[int], dict[str, Any]] | None = None

    # ------------------------------------------------------------------
    # Rollouts
    # ------------------------------------------------------------------
    def run_episode(
        self,
        task_id: int,
        start: EnvState | None = None,
        random_policy: bool = False,
    ) -> Trajectory:
        """Roll one epsilon-greedy episode on ``task_id`` from ``start``.

        ``start`` defaults to the reset state; ``random_policy`` picks
        uniform actions (used by the Go-Explore baseline and the w/o-PE
        ablation when restarting from customised states).
        """
        # Annotated so static call resolution binds env.step/reset to
        # FeatureSelectionEnv (the call graph can't see through the
        # Mapping element type).
        env: FeatureSelectionEnv = self.envs[task_id]
        state = env.reset() if start is None else env.reset_to(start)
        final_score = env.reward_fn(env.selected) if env.selected else 0.0
        states: list[np.ndarray] = []
        actions: list[int] = []
        rewards: list[float] = []
        while not env.done:
            if random_policy:
                action = int(self._rng.integers(env.N_ACTIONS))
            else:
                action = self.agent.act(state)
            next_state, reward, _, info = env.step(action)
            if self.reward_transform is not None:
                reward = self.reward_transform(task_id, reward)
            states.append(state)
            actions.append(action)
            rewards.append(reward)
            state = next_state
            final_score = info["score"]
        return Trajectory(
            task_id=task_id,
            states=np.array(states).reshape(len(states), env.state_dim),
            actions=actions,
            rewards=rewards,
            gamma=self.config.agent.gamma,
            selected_features=env.selected,
            final_reward=float(final_score),
        )

    def plan_episode(self) -> tuple[int, EnvState, bool]:
        """Sample one episode's ``(task, start, random_policy)`` triple.

        This is the only RNG-consuming part of episode set-up (task
        sampling and ITE state customisation).  It is factored out of
        :meth:`buffer_filling` so an executor that plans a whole phase
        before running it draws from the same streams in the same order.
        """
        task_id = self.task_sampler(self.registry, self._rng)
        start = (
            self.initial_state_provider(task_id)
            if self.initial_state_provider is not None
            else EnvState(selected=(), position=0)
        )
        customised = start.position > 0 or bool(start.selected)
        random_policy = self.restart_policy == "random" and customised
        return task_id, start, random_policy

    def commit_episode(
        self, task_id: int, trajectory: Trajectory, start: EnvState
    ) -> None:
        """Fold one finished episode into trainer state (buffer + hooks).

        RNG-free: identical trajectories committed in the same order give
        identical trainer state, however the episodes were executed.
        """
        self.registry.buffer(task_id).add_trajectory(trajectory)
        if self.episode_end_hook is not None:
            self.episode_end_hook(task_id, trajectory, start)
        if self.telemetry is not None:
            payload: dict[str, Any] = {
                "task": task_id,
                "reward": round(float(trajectory.final_reward), 6),
                "steps": trajectory.length,
                "n_selected": len(trajectory.selected_features),
                "epsilon": round(
                    float(self.agent.epsilon_schedule(self.agent.action_count)),
                    6,
                ),
            }
            if self.telemetry_probe is not None:
                payload.update(self.telemetry_probe(task_id))
            self.telemetry.emit("episode", **payload)

    def buffer_filling(self, n_episodes: int) -> dict[int, list[Trajectory]]:
        """Buffer Filling Phase (Algorithm 1): N resources → N episodes.

        The N rollout resources run one after another: plan, run and
        commit each episode.
        """
        collected: dict[int, list[Trajectory]] = {}
        for _ in range(n_episodes):
            task_id, start, random_policy = self.plan_episode()
            trajectory = self.run_episode(
                task_id, start=start, random_policy=random_policy
            )
            self.commit_episode(task_id, trajectory, start)
            collected.setdefault(task_id, []).append(trajectory)
        return collected

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_iteration(self, iteration: int) -> IterationStats:
        """One outer iteration: fill buffers, then K update rounds."""
        with self.tracer.span("train.iteration", iteration=iteration) as span:
            with self.tracer.span("train.fill", parent=span):
                collected = self.buffer_filling(
                    self.config.episodes_per_iteration
                )
            losses: list[float] = []
            with self.tracer.span("train.update", parent=span):
                for _ in range(self.config.updates_per_iteration):
                    for task_id in self.registry.non_empty_task_ids():
                        losses.append(self.update_round(task_id, self._rng))
        stats = IterationStats(
            iteration=iteration,
            episodes=sum(len(v) for v in collected.values()),
            mean_loss=float(np.mean(losses)) if losses else 0.0,
            rewards_per_task={
                task_id: float(np.mean([t.final_reward for t in trajectories]))
                for task_id, trajectories in collected.items()
            },
        )
        self.history.append(stats)
        if self.telemetry is not None:
            self.telemetry.emit("iteration", **self._iteration_event(stats))
        return stats

    def update_round(self, task_id: int, rng: np.random.Generator) -> float:
        """One minibatch update from ``task_id``'s buffer; returns the loss.

        Samples with ``rng``, steps the agent, and refreshes the sampled
        priorities when the buffer is prioritized.
        """
        buffer = self.registry.buffer(task_id)
        batch = buffer.sample(self.config.agent.batch_size, rng)
        loss = self.agent.update(batch, task_id=task_id)
        if isinstance(buffer, PrioritizedReplayBuffer):
            buffer.update_priorities(self.agent.td_errors(batch))
        return loss

    def _iteration_event(self, stats: IterationStats) -> dict[str, Any]:
        """The per-iteration telemetry payload (read-only aggregation)."""
        payload: dict[str, Any] = {
            "iteration": stats.iteration,
            "episodes": stats.episodes,
            "mean_loss": round(stats.mean_loss, 6),
            "rewards_per_task": {
                str(task): round(reward, 6)
                for task, reward in sorted(stats.rewards_per_task.items())
            },
        }
        cache = {"hits": 0, "misses": 0, "entries": 0}
        seen_cache = False
        for env in self.envs.values():
            stats_fn = getattr(env.reward_fn, "stats", None)
            if stats_fn is None:
                continue
            seen_cache = True
            for key, value in stats_fn().items():
                cache[key] = cache.get(key, 0) + int(value)
        if seen_cache:
            lookups = cache["hits"] + cache["misses"]
            cache["hit_rate"] = (
                round(cache["hits"] / lookups, 6) if lookups else 0.0
            )
            payload["cache"] = cache
        # ITS allocation tallies, when the sampler is a scheduler's bound
        # method (the PAFeat wiring) or anything else exposing visits().
        owner = getattr(self.task_sampler, "__self__", None)
        visits_fn = getattr(owner, "visits", None)
        if visits_fn is not None:
            payload["its_visits"] = {
                str(task): int(count)
                for task, count in sorted(visits_fn().items())
            }
        # Phase fractions are a view of the trace: each phase's share of
        # the fill + update span seconds so far.
        totals = self.tracer.totals()
        phase_seconds = {
            phase: totals.get(phase, 0.0)
            for phase in ("train.fill", "train.update")
        }
        spent = sum(phase_seconds.values())
        payload["phases"] = {
            phase: round(seconds / spent, 6) if spent > 0.0 else 0.0
            for phase, seconds in phase_seconds.items()
        }
        return payload

    def train(
        self,
        n_iterations: int | None = None,
        iteration_hook: Callable[[int], None] | None = None,
    ) -> list[IterationStats]:
        """Run the full Algorithm 1 loop with best-policy checkpointing.

        Every ``checkpoint_every`` iterations the greedy policy is scored on
        all seen tasks; the best-scoring network snapshot is restored at the
        end.  The default score reads cached rewards, but the held-out
        kernel scorer PA-FEAT installs is a large share of a fit's time.
        DQN on small reward gaps can drift late in training — keeping the
        best seen-task policy removes that failure mode.  Scoring changes
        no weights and draws no random numbers, but its greedy episodes
        tick the epsilon schedule's clock (see :meth:`greedy_subsets`), so
        later rollouts explore slightly less than they would without it.

        The evaluation cadence is keyed on the *global* iteration counter
        (``len(self.history)``), so a run resumed from a checkpoint
        evaluates — and consumes RNG — at exactly the same iterations as an
        uninterrupted run.  ``iteration_hook`` is called with the global
        iteration number after each iteration (and after any best-policy
        evaluation); :meth:`repro.core.pafeat.PAFeat.fit` uses it to flush
        durable checkpoints and to honour stop requests, which it signals
        by raising (the best-policy restore is then skipped, preserving the
        mid-training state for the checkpoint).
        """
        total = n_iterations if n_iterations is not None else self.config.n_iterations
        if total < 1:
            raise ValueError(f"n_iterations must be >= 1, got {total}")
        start = len(self.history)
        checkpoint_every = max(1, self.config.checkpoint_every)
        stats_list = []
        for i in range(total):
            stats_list.append(self.train_iteration(start + i))
            global_iteration = start + i + 1
            if global_iteration % checkpoint_every == 0 or i == total - 1:
                score = self._checkpoint_score()
                if score > self._best_score:
                    self._best_score = score
                    self._best_snapshot = self.agent.save_policy()
            if iteration_hook is not None:
                iteration_hook(global_iteration)
        self.apply_best_snapshot()
        return stats_list

    def apply_best_snapshot(self) -> None:
        """Load the best-scoring policy seen so far into the agent (if any)."""
        if self._best_snapshot is not None:
            self.agent.load_policy(self._best_snapshot)

    # ------------------------------------------------------------------
    # Durable checkpointing (crash/resume)
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Complete training state as a ``(json_meta, arrays)`` payload.

        Covers everything :meth:`restore_state` needs to continue the run
        bit-identically: the agent's full learning state (networks, Adam
        moments, counters, RNG), every per-task replay buffer with its
        trajectory tail, the training-loop RNG stream, the iteration
        history and the best-snapshot-so-far.  Capture is passive — it
        draws no random numbers — so checkpointed and checkpoint-free runs
        follow identical RNG streams.
        """
        agent_meta, agent_arrays = self.agent.capture_state()
        registry_meta, registry_arrays = self.registry.capture_state()
        arrays = (
            nest("agent/", agent_arrays)
            | nest("replay/", registry_arrays)
            | nest("best/", self._best_snapshot or {})
        )
        meta = {
            "iteration": len(self.history),
            "history": [asdict(stats) for stats in self.history],
            "rng": rng_state(self._rng),
            "agent": agent_meta,
            "replay": registry_meta,
            "best_score": None if np.isneginf(self._best_score) else self._best_score,
            "has_best_snapshot": self._best_snapshot is not None,
        }
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Restore a snapshot captured by :meth:`capture_state`."""
        self.agent.restore_state(meta["agent"], unnest("agent/", arrays))
        self.registry.restore_state(meta["replay"], unnest("replay/", arrays))
        set_rng_state(self._rng, meta["rng"])
        self.history = [
            IterationStats(
                iteration=int(stats["iteration"]),
                episodes=int(stats["episodes"]),
                mean_loss=float(stats["mean_loss"]),
                rewards_per_task={
                    int(k): float(v) for k, v in stats["rewards_per_task"].items()
                },
                task_probabilities={
                    int(k): float(v)
                    for k, v in stats.get("task_probabilities", {}).items()
                },
            )
            for stats in meta["history"]
        ]
        self._best_score = (
            -np.inf if meta.get("best_score") is None else float(meta["best_score"])
        )
        self._best_snapshot = (
            unnest("best/", arrays) if meta.get("has_best_snapshot") else None
        )

    def _checkpoint_score(self) -> float:
        """Score the current greedy policy for best-snapshot selection."""
        subsets = self.greedy_subsets()
        if self.checkpoint_scorer is not None:
            return self.checkpoint_scorer(subsets)
        return self.greedy_seen_score(subsets)

    def greedy_seen_score(
        self, subsets: dict[int, tuple[int, ...]] | None = None
    ) -> float:
        """Mean shaped score of the greedy policy across all seen tasks."""
        if subsets is None:
            subsets = self.greedy_subsets()
        scores = []
        for task_id, env in self.envs.items():
            subset = subsets[task_id]
            raw = env.reward_fn(subset) if subset else 0.0
            penalty = env.config.size_penalty * len(subset) / env.n_features
            scores.append(raw - penalty)
        return float(np.mean(scores)) if scores else 0.0

    # ------------------------------------------------------------------
    # Greedy scoring during training
    # ------------------------------------------------------------------
    def greedy_subsets(
        self, task_ids: Sequence[int] | None = None
    ) -> dict[int, tuple[int, ...]]:
        """The greedy policy's own subset on each of ``task_ids``' envs.

        ``task_ids`` defaults to every env, in env order.  The episodes run
        in the lockstep kernel (:mod:`repro.core.batch`), one call for all
        envs that share a budget ratio and ``feature_corr`` (a PA-FEAT
        fit's envs all do).  A subset the policy left empty stays empty;
        the scorers count it as 0.

        Each greedy step adds one tick to ``agent.action_count``, the
        epsilon schedule's clock, as stepping an env with one action
        query per step would: the ticks are part of every fit's
        fingerprint, and dropping them would move every later exploration
        draw.
        """
        ids = list(self.envs) if task_ids is None else list(task_ids)
        groups: dict[tuple[float, int], list[int]] = {}
        for task_id in ids:
            env = self.envs[task_id]
            key = (env.config.max_feature_ratio, id(env.feature_corr))
            groups.setdefault(key, []).append(task_id)
        subsets: dict[int, tuple[int, ...]] = {}
        for group in groups.values():
            envs = [self.envs[task_id] for task_id in group]
            found = batched_greedy_subsets(
                self.agent,
                [env.task_representation for env in envs],
                envs[0].config,
                feature_corr=envs[0].feature_corr,
            )
            for task_id, env, subset in zip(group, envs, found):
                subsets[task_id] = subset
                # An episode ends on the budget's last pick or past the
                # last feature: one step per position it scanned.
                full = len(subset) == env.max_selectable
                self.agent.action_count += subset[-1] + 1 if full else env.n_features
        return {task_id: subsets[task_id] for task_id in ids}


def greedy_subset(agent: DuelingDQNAgent, env: FeatureSelectionEnv) -> tuple[int, ...]:
    """Run one greedy episode of ``agent`` on ``env`` and return the subset.

    The env-stepping reference for the lockstep kernel
    (:mod:`repro.core.batch`), which runs every greedy episode in the
    library: the kernel tests compare against it.  It steps ``env`` with
    :meth:`~repro.rl.agent.DuelingDQNAgent.act_batch`, so it leaves the
    agent's action counter and RNG as they were; ``env.position`` ends at
    the episode's step count.
    """
    state = env.reset()
    while not env.done:
        action = int(agent.act_batch(state)[0])
        state, _, _, _ = env.step(action)
    return env.selected
