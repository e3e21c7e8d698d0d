"""Batched greedy-inference engine: the serving wrapper over the kernel.

The lockstep kernel lives in :mod:`repro.core.batch` (the layer contract
places ``serve`` above ``core``, and :meth:`repro.core.pafeat.PAFeat.select`
is the same kernel at B=1).  This engine adds what serving needs around
it:

* binding to a concrete trained agent + environment config +
  feature-correlation matrix (usually straight from a
  :class:`~repro.serve.registry.ModelRegistry` model via
  :meth:`BatchedGreedyEngine.from_model`);
* validating the whole request up front with the kernel's own width
  check (:func:`repro.core.batch.check_representations`), so a
  representation of the wrong feature count fails before any work, with
  its index in the request;
* chunking: arbitrarily large request batches are split into lockstep
  groups of at most ``max_batch_size`` episodes, keeping the kernel's
  per-call state cache-sized.  The default is the kernel's
  :data:`~repro.core.batch.FORWARD_ROWS`, its rows per forward.

A task's subset does not depend on the batch it rides in, except at a
Q-gap within rounding of 0, and the engine answers with the same
empty-subset fallback (:func:`repro.core.batch.served_subsets`), so
results equal per-task :meth:`repro.core.pafeat.PAFeat.select` exactly
away from such near-ties.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.batch import (
    FORWARD_ROWS,
    batched_greedy_subsets,
    check_representations,
    served_subsets,
)
from repro.core.config import EnvConfig
from repro.core.state import feature_count

if TYPE_CHECKING:
    from repro.core.pafeat import PAFeat
    from repro.data.tasks import Task
    from repro.rl.agent import DuelingDQNAgent


class BatchedGreedyEngine:
    """Run many unseen tasks' greedy episodes per Q-network forward."""

    def __init__(
        self,
        agent: "DuelingDQNAgent",
        env_config: EnvConfig,
        feature_corr: np.ndarray | None = None,
        max_batch_size: int = FORWARD_ROWS,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.agent = agent
        self.env_config = env_config
        self.feature_corr = feature_corr
        self.max_batch_size = max_batch_size
        # The agent's state dimension pins the feature count every request
        # must match.
        self.n_features = feature_count(agent.state_dim)

    @classmethod
    def from_model(
        cls, model: "PAFeat", max_batch_size: int = FORWARD_ROWS
    ) -> "BatchedGreedyEngine":
        """Engine bound to a fitted/loaded model's inference context."""
        return cls(
            model.inference_agent(),
            model.config.env,
            feature_corr=model._feature_corr,
            max_batch_size=max_batch_size,
        )

    def select_representations(
        self, representations: Sequence[np.ndarray]
    ) -> list[tuple[int, ...]]:
        """Greedy subsets for task-representation vectors, in input order.

        Request deadlines are the batcher's and the server's to enforce;
        the server builds the engine with the batcher's ``max_batch_size``,
        so one flush is one chunk.
        """
        reps = check_representations(self.agent, representations)
        results: list[tuple[int, ...]] = []
        for start in range(0, len(reps), self.max_batch_size):
            chunk = reps[start : start + self.max_batch_size]
            subsets = batched_greedy_subsets(
                self.agent, chunk, self.env_config, feature_corr=self.feature_corr
            )
            results.extend(served_subsets(subsets, chunk))
        return results

    def select_tasks(self, tasks: Iterable["Task"]) -> dict[str, tuple[int, ...]]:
        """Greedy subsets for :class:`~repro.data.tasks.Task` objects."""
        from repro.data.stats import pearson_representation

        ordered = list(tasks)
        subsets = self.select_representations(
            [pearson_representation(task.features, task.labels) for task in ordered]
        )
        return {task.name: subset for task, subset in zip(ordered, subsets)}
