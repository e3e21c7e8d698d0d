"""Diagnostics for trained PA-FEAT models.

Tools a practitioner reaches for once a selector is trained:

* :func:`explain_selection` — the greedy episode ``select`` runs for a
  task, reported per scanned feature: the state the agent saw
  (correlation, percentile, redundancy) and the Q-gap behind its
  decision.  It is the lockstep kernel's episode (:mod:`repro.core.batch`)
  at B=1, whose subset is then replayed one position at a time for the
  Q rows.
* :func:`policy_feature_scores` — a per-feature "importance" vector from
  the policy's point of view: the advantage of selecting each feature when
  it comes under the cursor.
* :func:`q_gap_statistics` — distribution of |Q(select) − Q(deselect)|
  along the greedy path; near-zero gaps flag undertrained or indifferent
  decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import batched_greedy_subsets
from repro.core.pafeat import PAFeat
from repro.core.state import ScanEncoder
from repro.data.stats import pearson_representation
from repro.data.tasks import Task


@dataclass(frozen=True)
class Decision:
    """One step of a greedy selection episode, annotated."""

    position: int
    feature_name: str
    correlation: float
    percentile: float
    redundancy: float
    q_deselect: float
    q_select: float
    selected: bool

    @property
    def q_gap(self) -> float:
        """Q(select) − Q(deselect); positive means the agent wanted it."""
        return self.q_select - self.q_deselect


def explain_selection(model: PAFeat, task: Task) -> list[Decision]:
    """The greedy episode ``select`` runs for ``task``, one decision per step.

    The ``selected`` flags are the policy's own subset: when it picks
    nothing they are all False, where ``select`` serves the single
    most-correlated feature instead.  The Q rows come from replaying
    that subset through a :class:`~repro.core.state.ScanEncoder`, one
    single-row forward per scanned position, so each is the agent's Q at
    the state an env-stepping episode reaches there.
    """
    agent = model.inference_agent()
    representation = pearson_representation(task.features, task.labels)
    feature_corr = model._feature_corr
    subset = batched_greedy_subsets(
        agent, [representation], model.config.env, feature_corr=feature_corr
    )[0]
    encoder = ScanEncoder(
        representation[None, :], model.config.env.max_feature_ratio, feature_corr
    )
    decisions: list[Decision] = []
    for position in range(encoder.n_features):
        encoder.move(position, 0)
        q_values = agent.q_values(encoder.states[0])[0]
        chosen = [feature for feature in subset if feature < position]
        redundancy = 0.0
        if feature_corr is not None and chosen:
            redundancy = float(np.max(feature_corr[position, chosen]))
        selected = position in subset
        decisions.append(
            Decision(
                position=position,
                feature_name=task.table.feature_names[position],
                correlation=float(representation[position]),
                percentile=float(np.mean(representation <= representation[position])),
                redundancy=redundancy,
                q_deselect=float(q_values[0]),
                q_select=float(q_values[1]),
                selected=selected,
            )
        )
        if selected:
            encoder.select(0, position)
            # The episode ends on the budget's last pick.
            if encoder.counts[0] == encoder.budget:
                break
    return decisions


def policy_feature_scores(model: PAFeat, task: Task) -> np.ndarray:
    """Per-feature Q-gap along the greedy path (the policy's importances).

    Features past the episode's end (budget truncation) get ``nan``: the
    policy never judged them.
    """
    decisions = explain_selection(model, task)
    scores = np.full(task.n_features, np.nan)
    for decision in decisions:
        scores[decision.position] = decision.q_gap
    return scores


@dataclass(frozen=True)
class QGapStatistics:
    """Summary of decision confidence along a greedy episode."""

    mean_abs_gap: float
    min_abs_gap: float
    max_abs_gap: float
    n_decisions: int
    n_selected: int


def q_gap_statistics(model: PAFeat, task: Task) -> QGapStatistics:
    """Aggregate the |Q-gap| distribution of one greedy episode."""
    decisions = explain_selection(model, task)
    if not decisions:
        raise ValueError("episode produced no decisions")
    gaps = np.array([abs(d.q_gap) for d in decisions])
    return QGapStatistics(
        mean_abs_gap=float(gaps.mean()),
        min_abs_gap=float(gaps.min()),
        max_abs_gap=float(gaps.max()),
        n_decisions=len(decisions),
        n_selected=sum(d.selected for d in decisions),
    )


def render_explanation(decisions: list[Decision], max_rows: int = 20) -> str:
    """Human-readable table of a selection episode."""
    from repro.analysis.reporting import render_table

    rows = [
        [
            d.position,
            d.feature_name,
            d.correlation,
            d.percentile,
            d.redundancy,
            d.q_gap,
            "select" if d.selected else "skip",
        ]
        for d in decisions[:max_rows]
    ]
    table = render_table(
        ["pos", "feature", "|corr|", "pct", "redund", "q-gap", "action"],
        rows,
        title="greedy selection episode",
        precision=3,
    )
    if len(decisions) > max_rows:
        table += f"\n... {len(decisions) - max_rows} more steps"
    return table
