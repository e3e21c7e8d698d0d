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
through — and scores them with batched greedy forwards over the
still-active rows.  Rows leave the batch when their episode truncates on
the ``max_feature_ratio`` budget.  Until the first one does, the active
rows are all rows and the kernel addresses them with a plain slice, so a
step copies nothing; after that, with an index array.

A forward never sees a full ``[rep | mask | scalars]`` state.  Within an
episode ``rep`` is fixed and the mask gains at most one entry per step,
so the kernel keeps each row's first-layer pre-activation but for its
scan scalars' term, ``b + rep @ W[:m] + Σ W[m + f]`` over the selected
``f`` (one ``(B, m) @ (m, h)`` product per call, one row add per
select), and a forward adds ``scalars @ W[2m:]`` to it: about 9·h
multiply-adds per row instead of (2m + 9)·h.  The sum runs in another
order than one ``states @ W + b`` product, so a Q row can differ from
``q_values``'s in the last bits; a subset can differ only at a Q-gap
within rounding of 0.

A trained policy deselects most features, and a deselect changes nothing
but the cursor, so the states along a run of deselects are known before
the agent acts.  Each round therefore scores positions ``p … p+w−1`` of
every active episode in one forward of ``n·w`` rows, row ``(i, j)``
being episode ``i``'s state at ``p+j`` had it deselected ``p … p+j−1``:
its kept pre-activation and its scan scalars there
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

Action choice is :meth:`repro.rl.agent.DuelingDQNAgent.act_preactivations`,
the argmax over the Q rows the rest of the network computes from the
pre-activations: it advances no action counter, draws no random
numbers, and breaks exact Q ties to the lowest action, so an episode is
side-effect free and deterministic.  With contracts on
(``REPRO_CONTRACTS``), the kernel builds the full state rows each round
scores and checks them at its ``batch.greedy`` boundary.  Termination (cursor past the end, or
the selected count reaching ``floor(max_feature_ratio · m)``) mirrors the
environment.  The kernel returns each episode's own subset, empty when
the policy chose nothing; :func:`served_subsets` applies the serving
fallback (the single most-correlated feature) that ``select``,
``select_all_unseen``, the serving engine, SADRLFS and the representation
study answer with.  :func:`repro.core.feat.greedy_subset`, which steps a
``FeatureSelectionEnv`` with ``act_batch`` (the same rule on full
states), is the env-stepping reference
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

from repro.analysis.contracts import check_state_batch, contracts_enabled
from repro.core.config import EnvConfig
from repro.core.state import ScanEncoder, feature_count

#: Rows per Q forward: the cap on a lookahead round's block, and the
#: serving engine's default lockstep batch.
FORWARD_ROWS = 64


class GreedyAgent(Protocol):
    """What the kernel reads of an agent: its state width, its first
    layer and its greedy rule on that layer's pre-activations."""

    state_dim: int

    @property
    def first_layer(self) -> tuple[np.ndarray, np.ndarray]: ...

    def act_preactivations(self, preactivations: np.ndarray) -> np.ndarray: ...


def check_representations(
    agent: GreedyAgent, representations: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Task representations as float vectors of the agent's feature count.

    The one width and finiteness check every selection path shares: a task
    from another feature space fails here, naming both counts, instead of
    as a ``feature_corr`` shape or layer width error further down, and a
    NaN or infinite entry fails here instead of yielding a subset.
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
    # One pass over the whole call; the index is looked up only on failure.
    if reps and not np.isfinite(np.concatenate(reps)).all():
        index = next(i for i, rep in enumerate(reps) if not np.isfinite(rep).all())
        raise DataValidationError(
            f"representation {index} has a non-finite entry (NaN or Infinity)"
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
    answer for a task does not depend on the other tasks in the batch,
    except at a Q-gap within rounding of 0.
    """
    reps = check_representations(agent, representations)
    if not reps:
        return []
    matrix = np.stack(reps)
    encoder = ScanEncoder(matrix, config.max_feature_ratio, feature_corr)
    m = encoder.n_features
    weight, bias = agent.first_layer
    scalar_weight = weight[2 * m :]
    # Each row's first-layer pre-activation but for its scan scalars' term:
    # ``bias + rep @ W[:m]`` once, plus row ``W[m + f]`` per selected f.
    partial = matrix @ weight[:m] + bias
    active = np.arange(len(reps))
    rows: slice | np.ndarray = slice(None)
    position, width = 0, 1
    while True:
        width = min(width, m - position, max(1, FORWARD_ROWS // active.size))
        if width == 1:
            scalars = encoder.states[rows, 2 * m :]
            _check_scored(encoder, rows, scalars, agent.state_dim)
            actions = agent.act_preactivations(partial[rows] + scalars @ scalar_weight)
            choosing = active[actions == 1]
        else:
            scalars = encoder.window(rows, position, width)
            _check_scored(encoder, rows, scalars, agent.state_dim)
            terms = (scalars @ scalar_weight).reshape(active.size, width, -1)
            preactivations = (terms + partial[rows, None]).reshape(scalars.shape[0], -1)
            selects = (agent.act_preactivations(preactivations) == 1).reshape(
                active.size, width
            )
            # Commit at the first offset where any row selects: every row
            # deselected the positions before it, as lockstep would have.
            offsets = np.flatnonzero(selects.any(axis=0))
            offset = int(offsets[0]) if offsets.size else width - 1
            position += offset
            choosing = active[selects[:, offset]]
        if choosing.size:
            # One row takes numpy's cheaper scalar indexing.
            chosen = int(choosing[0]) if choosing.size == 1 else choosing
            encoder.select(chosen, position)
            partial[chosen] += weight[m + position]
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
    # One nonzero over the masks lists each row's selected features in
    # turn, counts[i] of them for row i.
    features = np.nonzero(encoder.states[:, m : 2 * m])[1].tolist()
    bounds = [0, *np.cumsum(encoder.counts).tolist()]
    return [tuple(features[start:end]) for start, end in zip(bounds, bounds[1:])]


def _check_scored(
    encoder: ScanEncoder, rows: "slice | np.ndarray", scalars: np.ndarray, dim: int
) -> None:
    """The ``batch.greedy`` contract on the full state rows a round scores:
    ``[rep | mask]`` with each of its scan-scalar rows.  Built only when
    contracts are on."""
    if contracts_enabled():
        head = encoder.states[rows, : 2 * encoder.n_features]
        width = scalars.shape[0] // head.shape[0]
        states = np.hstack([np.repeat(head, width, axis=0), scalars])
        check_state_batch("batch.greedy", states, dim)


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
