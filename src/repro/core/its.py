"""Inter-Task Scheduler (paper Section III-C).

Two progress probes per seen task, computed from the recent trajectories in
its replay buffer:

* **Distance ratio** ζ (Eqn. 6): relative gap between the all-features
  classifier score ``P_all`` and the mean score of recent selected subsets.
  Large ζ → the policy is still far from the full-feature baseline → more
  potential for improvement.
* **Performance uncertainty** ξ (Eqn. 7): ``1 - mean_i |1/2 - p(i)|`` where
  ``p(i)`` is the fraction of recent subsets containing feature *i*.  When
  selection frequencies hover near 1/2 the policy is undecided → high ξ.

The output module (Eqn. 8) normalises each score across tasks, sums them
and softmaxes the result into sampling probabilities for the rollout
resources.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.analysis import tsan
from repro.analysis.contracts import check_probability_vector
from repro.analysis.numerics import normalized, stable_softmax
from repro.core.config import ITSConfig
from repro.rl.replay import ReplayRegistry
from repro.rl.trajectory import EpisodeSummary


@dataclass(frozen=True)
class TaskProgress:
    """Progress snapshot for one seen task at scheduling time."""

    task_id: int
    distance_ratio: float
    uncertainty: float
    n_trajectories: int


def distance_ratio(
    trajectories: list[EpisodeSummary], all_features_score: float
) -> float:
    """Eqn. 6: ``(P_all - P_avg) / P_all`` over the recent subsets.

    Trajectory ``final_reward`` is exactly ``P(F_i)`` — the pretrained
    classifier's score of the episode's final subset — so no re-evaluation
    is needed.  Clamped at 0: a policy already beating the all-features
    baseline has no remaining "distance".
    """
    if not trajectories:
        return 1.0
    if all_features_score <= 0.0:
        return 0.0
    average = float(np.mean([t.final_reward for t in trajectories]))
    return max(0.0, (all_features_score - average) / all_features_score)


def performance_uncertainty(
    trajectories: list[EpisodeSummary], n_features: int
) -> float:
    """Eqn. 7: instability of per-feature selection frequencies.

    Returns a value in [1/2, 1]: 1/2 when every feature is always or never
    selected (fully stable), 1 when every feature is selected exactly half
    the time (maximally unstable).
    """
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    if not trajectories:
        return 1.0
    counts = np.zeros(n_features)
    for trajectory in trajectories:
        for feature in trajectory.selected_features:
            counts[feature] += 1.0
    frequencies = counts / len(trajectories)
    return float(1.0 - np.mean(np.abs(0.5 - frequencies)))


class InterTaskScheduler:
    """Allocates rollout probability mass across seen tasks (Eqn. 8)."""

    def __init__(
        self,
        task_ids: list[int],
        all_features_scores: dict[int, float],
        n_features: int,
        config: ITSConfig,
    ) -> None:
        if not task_ids:
            raise ValueError("scheduler needs at least one task")
        missing = [t for t in task_ids if t not in all_features_scores]
        if missing:
            raise ValueError(f"missing all-features baselines for tasks {missing}")
        self.task_ids = list(task_ids)
        self.all_features_scores = dict(all_features_scores)
        self.n_features = n_features
        self.config = config
        self.last_progress: list[TaskProgress] = []
        # Per task, its probes and the newest tail summary they were taken
        # from.  Every committed episode appends a new summary object and
        # every restore rebuilds the tail, so an identical (``is``) newest
        # summary means an unchanged tail; a different registry never
        # shares summary objects, so it never hits.
        self._progress_cache: dict[int, tuple[EpisodeSummary | None, TaskProgress]] = {}
        # Per-task episode allocation tally, guarded by the lock below.
        # Episodes are planned serially, but the counter is also readable
        # from telemetry threads, so updates go through a TrackedLock and
        # feed the runtime sanitizer.
        self.visit_counts: dict[int, int] = {t: 0 for t in self.task_ids}
        self._visit_lock = tsan.TrackedLock("its.visits")

    def collect_progress(self, registry: ReplayRegistry) -> list[TaskProgress]:
        """Information Collecting Phase (Eqn. 4) for every seen task.

        Episodes are planned and committed one at a time, so between two
        calls at most one task's tail has changed; only that task's probes
        are recomputed, the others come from the cache.
        """
        progress = []
        for task_id in self.task_ids:
            trajectories = registry.buffer(task_id).recent_trajectories(
                self.config.trajectory_window
            )
            newest = trajectories[-1] if trajectories else None
            cached = self._progress_cache.get(task_id)
            if cached is not None and cached[0] is newest:
                progress.append(cached[1])
                continue
            task_progress = TaskProgress(
                task_id=task_id,
                distance_ratio=distance_ratio(
                    trajectories, self.all_features_scores[task_id]
                ),
                uncertainty=performance_uncertainty(trajectories, self.n_features),
                n_trajectories=len(trajectories),
            )
            self._progress_cache[task_id] = (newest, task_progress)
            progress.append(task_progress)
        self.last_progress = progress
        return progress

    def probabilities(self, registry: ReplayRegistry) -> np.ndarray:
        """Probability Determination Phase (Eqn. 8): softmax of blended scores.

        Until every task has ``min_trajectories`` recorded episodes the
        allocation stays uniform — the probes are too noisy to act on.
        """
        progress = self.collect_progress(registry)
        n = len(progress)
        if any(p.n_trajectories < self.config.min_trajectories for p in progress):
            return np.full(n, 1.0 / n)
        zeta = np.array([p.distance_ratio for p in progress])
        xi = np.array([p.uncertainty for p in progress])
        blended = (normalized(zeta) + normalized(xi)) / self.config.temperature
        return check_probability_vector("its.probabilities", stable_softmax(blended), n)

    def sample_task(self, registry: ReplayRegistry, rng: np.random.Generator) -> int:
        """Draw one seen task according to the current allocation."""
        probabilities = self.probabilities(registry)
        index = rng.choice(len(self.task_ids), p=probabilities)
        task_id = self.task_ids[int(index)]
        self.record_visit(task_id)
        return task_id

    def record_visit(self, task_id: int) -> None:
        """Atomically count one planned episode for ``task_id``."""
        with self._visit_lock:
            tsan.note(self, "visit_counts", write=True)
            self.visit_counts[task_id] = self.visit_counts.get(task_id, 0) + 1

    def visits(self) -> dict[int, int]:
        """A consistent copy of the per-task allocation tally."""
        with self._visit_lock:
            tsan.note(self, "visit_counts")
            return dict(self.visit_counts)

    # ------------------------------------------------------------------
    # Durable checkpointing
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """Snapshot the probe telemetry (JSON-able; the ITS holds no RNG)."""
        return {
            "last_progress": [asdict(p) for p in self.last_progress],
            "visit_counts": {str(t): int(n) for t, n in self.visits().items()},
        }

    def restore_state(self, meta: dict) -> None:
        """Restore telemetry captured by :meth:`capture_state`.

        A ``progress_history`` list, written by older releases, is ignored:
        nothing read it.
        """
        self.last_progress = [TaskProgress(**p) for p in meta.get("last_progress", [])]
        self._progress_cache.clear()
        with self._visit_lock:
            self.visit_counts = {t: 0 for t in self.task_ids}
            for key, count in meta.get("visit_counts", {}).items():
                self.visit_counts[int(key)] = int(count)
