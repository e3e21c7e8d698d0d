"""Intra-Task Explorer (paper Section III-D).

Maintains one :class:`~repro.core.etree.ETree` per seen task.  When invoked
at the start of an episode it returns a *customised initial state*: the
most exploration-worthy visited state per the UCT rule (Eqn. 9).  The agent
then explores onward from that state using its current learned policy —
the "policy exploitation" (PE) that distinguishes PA-FEAT from Go-Explore,
which restarts with a *random* policy.  The ``use_policy_exploitation``
switch exists precisely for that ablation (Table III, "ours w/o PE").
"""

from __future__ import annotations

import numpy as np

from repro.analysis import tsan
from repro.core.config import ITEConfig
from repro.core.etree import ETree
from repro.core.state import EnvState
from repro.io.checkpoint import nest, rng_state, set_rng_state, unnest
from repro.rl.trajectory import Trajectory


class IntraTaskExplorer:
    """Per-task E-Trees plus the initial-state customisation strategy."""

    def __init__(self, n_features: int, config: ITEConfig, rng: np.random.Generator) -> None:
        self.n_features = n_features
        self.config = config
        self._rng = rng
        self._trees: dict[int, ETree] = {}
        self.invocations = 0
        self.customised_starts = 0
        # Guards the E-Trees: finished episodes are recorded one at a time
        # when they are committed, and every tree mutation goes through
        # this lock so concurrent recording is a sanitizer violation rather
        # than silent corruption.
        self._record_lock = tsan.TrackedLock("ite.record")

    def tree(self, task_id: int) -> ETree:
        """The E-Tree for a seen task, created lazily."""
        if task_id not in self._trees:
            self._trees[task_id] = ETree(
                self.n_features,
                exploration_constant=self.config.exploration_constant,
                size_penalty=self.config.size_penalty,
                max_nodes=self.config.max_tree_nodes,
            )
        return self._trees[task_id]

    def initial_state(self, task_id: int) -> EnvState:
        """Customised initial state for the next episode on ``task_id``.

        With probability ``invoke_probability`` (and once the tree has
        grown beyond the root) returns the UCT-selected valuable state;
        otherwise returns the default initial state, preserving coverage of
        shallow prefixes.
        """
        self.invocations += 1
        tree = self.tree(task_id)
        use_tree = (
            tree.n_nodes > 1
            and self._rng.random() < self.config.invoke_probability
        )
        if not use_tree:
            return EnvState(selected=(), position=0)
        self.customised_starts += 1
        return tree.select_state(self._rng)

    def record(self, task_id: int, trajectory: Trajectory, start: EnvState) -> None:
        """Fold a finished episode back into the task's E-Tree."""
        with self._record_lock:
            tsan.note(self, "_trees", write=True)
            self.tree(task_id).add_trajectory(trajectory, start=start)

    # ------------------------------------------------------------------
    # Durable checkpointing
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple[dict, dict[str, "np.ndarray"]]:
        """Snapshot per-task E-Trees, counters and the restart-RNG stream."""
        meta: dict = {
            "invocations": self.invocations,
            "customised_starts": self.customised_starts,
            "rng": rng_state(self._rng),
            "trees": {},
        }
        arrays: dict[str, np.ndarray] = {}
        for task_id, tree in self._trees.items():
            tree_meta, tree_arrays = tree.capture_state()
            meta["trees"][str(task_id)] = tree_meta
            arrays |= nest(f"tree/{task_id}/", tree_arrays)
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, "np.ndarray"]) -> None:
        """Restore a snapshot captured by :meth:`capture_state`."""
        self.invocations = int(meta["invocations"])
        self.customised_starts = int(meta["customised_starts"])
        set_rng_state(self._rng, meta["rng"])
        self._trees.clear()
        for key, tree_meta in meta.get("trees", {}).items():
            task_id = int(key)
            self.tree(task_id).restore_state(
                tree_meta, unnest(f"tree/{task_id}/", arrays)
            )

    @property
    def exploration_policy_is_learned(self) -> bool:
        """True when episodes from customised states follow the learned policy."""
        return self.config.use_policy_exploitation
