"""Tests for the trained-model diagnostics."""

import numpy as np
import pytest

from repro.core.analysis import (
    QGapStatistics,
    explain_selection,
    policy_feature_scores,
    q_gap_statistics,
    render_explanation,
)
from repro.core.batch import batched_greedy_subsets, served_subsets
from repro.core.env import FeatureSelectionEnv
from repro.core.pafeat import PAFeat
from repro.data.stats import pearson_representation
from tests.conftest import fast_config, zero_reward


class TestExplainSelection:
    def test_decisions_cover_scanned_prefix(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        decisions = explain_selection(fitted_tiny_model, task)
        assert decisions
        assert [d.position for d in decisions] == list(range(len(decisions)))

    def test_selected_flags_match_model_select(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        model = fitted_tiny_model
        for task in train.unseen_tasks:
            decisions = explain_selection(model, task)
            explained = tuple(d.position for d in decisions if d.selected)
            representations = [pearson_representation(task.features, task.labels)]
            raw = batched_greedy_subsets(
                model.inference_agent(), representations, model.config.env,
                feature_corr=model._feature_corr,
            )
            assert explained == raw[0]
            assert served_subsets(raw, representations)[0] == model.select(task)

    def test_q_rows_are_the_reference_episodes(self, fitted_tiny_model, tiny_split):
        """Each decision's Q row is the agent's Q at the state an
        env-stepping greedy episode reaches at that position."""
        train, test = tiny_split
        model = fitted_tiny_model
        agent = model.inference_agent()
        for task in train.unseen_tasks + test.unseen_tasks:
            env = FeatureSelectionEnv(
                0,
                pearson_representation(task.features, task.labels),
                zero_reward,
                model.config.env,
                feature_corr=model._feature_corr,
            )
            state = env.reset()
            expected = []
            while not env.done:
                expected.append(tuple(agent.q_values(state)[0].tolist()))
                state, _, _, _ = env.step(int(agent.act_batch(state)[0]))
            decisions = explain_selection(model, task)
            assert [(d.q_deselect, d.q_select) for d in decisions] == expected

    def test_empty_policy_explains_all_skip(self, tiny_split):
        """A zeroed head ties every Q: the episode selects nothing, which the
        explanation shows, while select serves the most-correlated feature."""
        train, _ = tiny_split
        model = PAFeat(fast_config(n_iterations=2)).fit(train)
        for parameter in model.inference_agent().online.layers[-1].parameters():
            parameter.value[...] = 0.0
        task = train.unseen_tasks[0]
        decisions = explain_selection(model, task)
        assert len(decisions) == task.n_features
        assert not any(d.selected for d in decisions)
        representation = pearson_representation(task.features, task.labels)
        assert model.select(task) == (int(np.argmax(representation)),)

    def test_annotations_in_valid_ranges(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        for decision in explain_selection(fitted_tiny_model, task):
            assert 0.0 <= decision.correlation <= 1.0
            assert 0.0 <= decision.percentile <= 1.0
            assert 0.0 <= decision.redundancy <= 1.0
            assert decision.feature_name == task.table.feature_names[decision.position]

    def test_q_gap_sign_matches_action(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        for decision in explain_selection(fitted_tiny_model, task):
            if decision.q_gap > 0:
                assert decision.selected
            elif decision.q_gap < 0:
                assert not decision.selected


class TestPolicyFeatureScores:
    def test_shape_and_nan_tail(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        scores = policy_feature_scores(fitted_tiny_model, task)
        assert scores.shape == (task.n_features,)
        decisions = explain_selection(fitted_tiny_model, task)
        judged = ~np.isnan(scores)
        assert judged.sum() == len(decisions)


class TestQGapStatistics:
    def test_statistics_consistent(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        stats = q_gap_statistics(fitted_tiny_model, train.unseen_tasks[0])
        assert isinstance(stats, QGapStatistics)
        assert stats.min_abs_gap <= stats.mean_abs_gap <= stats.max_abs_gap
        assert 0 <= stats.n_selected <= stats.n_decisions


class TestRenderExplanation:
    def test_renders_table(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        decisions = explain_selection(fitted_tiny_model, train.unseen_tasks[0])
        text = render_explanation(decisions)
        assert "greedy selection episode" in text
        assert "q-gap" in text

    def test_truncation_notice(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        decisions = explain_selection(fitted_tiny_model, train.unseen_tasks[0])
        text = render_explanation(decisions, max_rows=1)
        if len(decisions) > 1:
            assert "more steps" in text
