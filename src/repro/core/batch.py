"""Greedy episodes: B episodes in lockstep.

This kernel is the one greedy executor.  :meth:`repro.core.pafeat.PAFeat.
select` runs it at B=1; :meth:`~repro.core.pafeat.PAFeat.select_all_unseen`
and the serving engine run it at larger B; training-time greedy scoring
(:meth:`repro.core.feat.FEATTrainer.greedy_subsets`: best-policy
snapshots, ``greedy_seen_score`` and ``further_train``) runs it over the
trainer's environments; SADRLFS and the representation study run it on
their own agents and representations; and
:func:`repro.core.analysis.explain_selection` runs it at B=1 through an
agent view that records each step's Q row.

The scan MDP makes lockstep trivial: every episode starts at position 0
and advances the cursor by exactly one feature per step, so B episodes
stay *position-synchronised* for their entire lifetime.  The kernel keeps
their encodings in one :class:`~repro.core.state.ScanEncoder` — the same
incremental encoder :class:`~repro.core.env.FeatureSelectionEnv` steps
through — and per feature step issues a single batched greedy forward
(the agent's ``act_batch``) over the still-active rows.  m forwards total,
regardless of B.  Rows leave the batch when their episode truncates on
the ``max_feature_ratio`` budget.  Until the first one does, the active
rows are all rows and the kernel addresses them with a plain slice, so a
step copies nothing; after that, with an index array.

Action choice is :meth:`repro.rl.agent.DuelingDQNAgent.act_batch`'s
argmax over the Q rows: it advances no action counter, draws no random
numbers, and breaks exact Q ties to the lowest action, so an episode is
side-effect free and deterministic.  Termination (cursor past the end, or
the selected count reaching ``floor(max_feature_ratio · m)``) mirrors the
environment.  The kernel returns each episode's own subset, empty when
the policy chose nothing; :func:`served_subsets` applies the serving
fallback (the single most-correlated feature) that ``select``,
``select_all_unseen``, the serving engine, SADRLFS and the representation
study answer with.  :func:`repro.core.feat.greedy_subset`, which steps a
``FeatureSelectionEnv`` with ``act_batch``, is the env-stepping reference
the kernel is tested against: a property test
(``tests/test_serve_engine.py``) pins ``batched == greedy_subset`` across
random agents, budgets, feature counts straddling numpy's
pairwise-summation block size, and an exact-tie case.

The serving layer (:mod:`repro.serve.engine`) wraps this kernel with
chunking, registries and metrics; it lives here in ``core`` because the
layer contract places serving above the facade, not below it.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np
from repro.errors import DataValidationError

from repro.analysis.contracts import check_state_batch
from repro.core.config import EnvConfig
from repro.core.state import ScanEncoder, feature_count


class GreedyAgent(Protocol):
    """What the kernel reads of an agent: its state width and greedy rule."""

    state_dim: int

    def act_batch(self, states: np.ndarray) -> np.ndarray: ...


def check_representations(
    agent: GreedyAgent, representations: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Task representations as float vectors of the agent's feature count.

    The one width check every selection path shares: a task from another
    feature space fails here, naming both counts, instead of as a
    ``feature_corr`` shape or layer width error further down.
    """
    n_features = feature_count(agent.state_dim)
    reps = [np.asarray(rep, dtype=np.float64).reshape(-1) for rep in representations]
    for index, rep in enumerate(reps):
        if rep.shape[0] != n_features:
            raise DataValidationError(
                f"representation {index} has {rep.shape[0]} features; the "
                f"agent serves {n_features}-feature tasks (a "
                f"{n_features}-feature space)"
            )
    return reps


def batched_greedy_subsets(
    agent: GreedyAgent,
    representations: Sequence[np.ndarray],
    config: EnvConfig,
    feature_corr: np.ndarray | None = None,
) -> list[tuple[int, ...]]:
    """Greedy subsets for a batch of task representations, in lockstep.

    ``representations`` holds one |Pearson| task-representation vector per
    task, each over the agent's feature space.  Returns each episode's own
    subset, ``()`` when the policy selected nothing, in input order; the
    answer for a task does not depend on the other tasks in the batch.
    """
    reps = check_representations(agent, representations)
    if not reps:
        return []
    encoder = ScanEncoder(np.stack(reps), config.max_feature_ratio, feature_corr)
    m = encoder.n_features
    active = np.arange(len(reps))
    rows: slice | np.ndarray = slice(None)
    for position in range(m):
        batch = encoder.states[rows]
        check_state_batch("batch.greedy", batch, agent.state_dim)
        actions = agent.act_batch(batch)
        choosing = active[actions == 1]
        if choosing.size:
            # One row takes numpy's cheaper scalar indexing.
            encoder.select(
                int(choosing[0]) if choosing.size == 1 else choosing, position
            )
            # Mirror FeatureSelectionEnv: an episode is done when its
            # selected count reaches the budget, or the scan passes the end.
            going_on = encoder.counts[active] < encoder.budget
            if not going_on.all():
                active = active[going_on]
                rows = active
        if position + 1 == m or not active.size:
            break
        encoder.move(position + 1, rows)
    masks = encoder.states[:, m : 2 * m]
    return [tuple(np.flatnonzero(mask).tolist()) for mask in masks]


def served_subsets(
    subsets: Sequence[tuple[int, ...]], representations: Sequence[np.ndarray]
) -> list[tuple[int, ...]]:
    """The subsets tasks are answered with.

    Each policy subset as it is or, where the policy chose nothing, the
    task's single most-correlated feature, so downstream evaluation is
    always defined.
    """
    return [
        subset or (int(np.argmax(rep)),)
        for subset, rep in zip(subsets, representations)
    ]
