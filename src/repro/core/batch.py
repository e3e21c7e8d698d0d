"""Greedy episodes: B episodes in lockstep, with lookahead over deselects.

This kernel is the one greedy executor.  :meth:`repro.core.pafeat.PAFeat.
select` runs it at B=1; :meth:`~repro.core.pafeat.PAFeat.select_all_unseen`
and the serving engine run it at larger B; training-time greedy scoring
(:meth:`repro.core.feat.FEATTrainer.greedy_subsets`: best-policy
snapshots, ``greedy_seen_score`` and ``further_train``) runs it over the
trainer's environments; SADRLFS and the representation study run it on
their own agents and representations; and
:func:`repro.core.analysis.explain_selection` runs it at B=1, then replays
the committed subset to annotate each step.

The scan MDP makes lockstep trivial: every episode starts at position 0
and advances the cursor by exactly one feature per step, so B episodes
stay *position-synchronised* for their entire lifetime.  The kernel keeps
their encodings in one :class:`~repro.core.state.ScanEncoder` — the same
incremental encoder :class:`~repro.core.env.FeatureSelectionEnv` steps
through — and scores them with batched greedy forwards (the agent's
``act_batch``) over the still-active rows.  Rows leave the batch when
their episode truncates on the ``max_feature_ratio`` budget.  Until the
first one does, the active rows are all rows and the kernel addresses
them with a plain slice, so a step copies nothing; after that, with an
index array.

A trained policy deselects most features, and a deselect changes nothing
but the cursor, so the states along a run of deselects are known before
the agent acts.  Each round therefore scores positions ``p … p+w−1`` of
every active episode in one ``(n·w, state_dim)`` forward, row ``(i, j)``
being episode ``i``'s state at ``p+j`` had it deselected ``p … p+j−1``
(:meth:`~repro.core.state.ScanEncoder.window`).  The round commits at the
first offset ``j*`` where any row's argmax is "select": those rows select
``p+j*`` and every row moves to ``p+j*+1``, or to ``p+w`` when no row
selected, so the episodes stay position-synchronised and each committed
decision is taken on exactly the state a one-step-per-forward scan
reaches.  The window restarts at 1 after a round with a select and
doubles after one without, capped by the rest of the scan and by
:data:`FORWARD_ROWS` rows per forward.  A batch of more than
``FORWARD_ROWS // 2`` active rows thus runs one forward per feature step,
m in all; a lone episode whose policy selects nothing runs
``⌈log2(m+1)⌉`` forwards while ``m < 2·FORWARD_ROWS``.

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
the kernel is tested against: property tests
(``tests/test_serve_engine.py``) pin ``batched == greedy_subset`` across
random agents, budgets, batch sizes on both sides of the lookahead cap,
feature counts straddling numpy's pairwise-summation block size, and an
exact-tie case.

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

#: Rows per Q forward: the cap on a lookahead round's block, and the
#: serving engine's default lockstep batch.
FORWARD_ROWS = 64


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
    position, width = 0, 1
    while True:
        width = min(width, m - position, max(1, FORWARD_ROWS // active.size))
        if width == 1:
            batch = encoder.states[rows]
            check_state_batch("batch.greedy", batch, agent.state_dim)
            actions = agent.act_batch(batch)
            choosing = active[actions == 1]
        else:
            batch = encoder.window(rows, position, width)
            check_state_batch("batch.greedy", batch, agent.state_dim)
            selects = (agent.act_batch(batch) == 1).reshape(active.size, width)
            # Commit at the first offset where any row selects: every row
            # deselected the positions before it, as lockstep would have.
            offsets = np.flatnonzero(selects.any(axis=0))
            offset = int(offsets[0]) if offsets.size else width - 1
            position += offset
            choosing = active[selects[:, offset]]
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
            width = 1
        else:
            width *= 2
        if position + 1 == m or not active.size:
            break
        position += 1
        encoder.move(position, rows)
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
