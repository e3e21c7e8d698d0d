"""Greedy inference for unseen tasks: B episodes in lockstep.

This kernel is all of unseen-task selection.  :meth:`repro.core.pafeat.
PAFeat.select` runs it at B=1; :meth:`~repro.core.pafeat.PAFeat.
select_all_unseen` and the serving engine run it at larger B.

The scan MDP makes lockstep trivial: every episode starts at position 0
and advances the cursor by exactly one feature per step, so B episodes
stay *position-synchronised* for their entire lifetime.  The kernel keeps
their encodings in one :class:`~repro.core.state.ScanEncoder` — the same
incremental encoder :class:`~repro.core.env.FeatureSelectionEnv` steps
through — and per feature step issues a single batched greedy forward
(:meth:`repro.rl.agent.DuelingDQNAgent.act_batch`) over the still-active
rows.  m forwards total, regardless of B.  Rows leave the batch when
their episode truncates on the ``max_feature_ratio`` budget.  Until the
first one does, the active rows are all rows and the kernel addresses
them with a plain slice, so a step copies nothing; after that, with an
index array.

Action choice is ``act_batch``'s argmax over the Q rows: it advances no
action counter, draws no random numbers, and breaks exact Q ties to the
lowest action, so selecting is side-effect free and deterministic.
Termination (cursor past the end, or the selected count reaching
``floor(max_feature_ratio · m)``) mirrors the environment, and a cold
policy that deselects everything falls back to the single
most-correlated feature so downstream evaluation is always defined.
Training-time greedy scoring (:func:`repro.core.feat.greedy_subset`)
steps the environment with ``act(greedy=True)`` instead, which breaks
ties the same way, so the two return the same subset; a property test
(``tests/test_serve_engine.py``) pins that across random suites, seeds,
feature counts straddling numpy's pairwise-summation block size, and an
exact-tie case.

The serving layer (:mod:`repro.serve.engine`) wraps this kernel with
chunking, registries and metrics; it lives here in ``core`` because the
layer contract places serving above the facade, not below it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
from repro.errors import DataValidationError

from repro.analysis.contracts import check_state_batch
from repro.core.config import EnvConfig
from repro.core.state import ScanEncoder, feature_count

if TYPE_CHECKING:
    from repro.rl.agent import DuelingDQNAgent


def check_representations(
    agent: "DuelingDQNAgent", representations: Sequence[np.ndarray]
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
    agent: "DuelingDQNAgent",
    representations: Sequence[np.ndarray],
    config: EnvConfig,
    feature_corr: np.ndarray | None = None,
) -> list[tuple[int, ...]]:
    """Greedy subsets for a batch of task representations, in lockstep.

    ``representations`` holds one |Pearson| task-representation vector per
    task, each over the agent's feature space.  Returns one subset per
    task, in input order; the answer for a task does not depend on the
    other tasks in the batch.
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
    return [
        tuple(np.flatnonzero(mask).tolist()) or (int(np.argmax(rep)),)
        for mask, rep in zip(masks, reps)
    ]
