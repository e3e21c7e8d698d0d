"""Unseen-task selection is inference only: no training state moves.

``PAFeat.select`` is the lockstep kernel at B=1, so it shares the batched
paths' contract: the agent's action counter (which drives the epsilon
schedule) and exploration RNG are untouched, exact Q ties break to the
lowest action every time, and a task from another feature space is
rejected by one shared check naming both feature counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AgentConfig, EnvConfig, PAFeatConfig
from repro.core.pafeat import PAFeat
from repro.core.state import feature_count, state_dim
from repro.data.stats import pearson_representation
from repro.data.synthetic import SyntheticSpec, generate_suite
from repro.errors import DataValidationError
from repro.rl.agent import DuelingDQNAgent
from repro.rl.schedules import ConstantSchedule
from repro.serve import BatchedGreedyEngine
from tests.conftest import fast_config


def training_state(agent: DuelingDQNAgent) -> tuple[int, dict]:
    return agent.action_count, agent._rng.bit_generator.state


def run_every_selection_path(model: PAFeat, suite) -> None:
    for task in suite.unseen_tasks:
        model.select(task)
    model.select_all_unseen(suite)
    BatchedGreedyEngine.from_model(model).select_tasks(suite.unseen_tasks)


class TestNoTrainingSideEffects:
    def test_selection_leaves_action_count_and_rng(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        agent = fitted_tiny_model.inference_agent()
        before = training_state(agent)
        run_every_selection_path(fitted_tiny_model, train)
        assert training_state(agent) == before

    def test_further_train_ignores_earlier_selects(self, tiny_split):
        # Epsilon is still decaying when further_train starts, so a select
        # that advanced the action counter would move every later draw.
        config = fast_config(agent=AgentConfig(epsilon_decay_steps=1000))
        train, _ = tiny_split
        task = train.unseen_tasks[0]
        plain = PAFeat(config).fit(train)
        selected_first = PAFeat(config).fit(train)
        for _ in range(3):
            selected_first.select(task)
        assert plain.further_train(task, 4, checkpoint_every=2) == (
            selected_first.further_train(task, 4, checkpoint_every=2)
        )


class _TieAgent(DuelingDQNAgent):
    """Q rows tie exactly unless the cursor feature is in the top half.

    The percentile scalar is the share of features whose |corr| is at most
    the cursor's; from 0.5 up, select wins outright.
    """

    def q_values(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(states)
        percentile = states[:, 2 * feature_count(self.state_dim) + 7]
        q = np.ones((states.shape[0], 2))
        q[percentile >= 0.5, 0] = 0.0
        return q


class TestExactTies:
    def test_ties_break_to_the_lowest_action_on_every_path(self, tiny_suite):
        m = tiny_suite.n_features
        agent = _TieAgent(
            state_dim(m), 2, (8,), 0.9, 1e-3, ConstantSchedule(0.0), 10,
            np.random.default_rng(0),
        )
        config = PAFeatConfig(env=EnvConfig(max_feature_ratio=1.0))
        model = PAFeat(config)
        model._loaded_agent = agent
        expected = {}
        for task in tiny_suite.unseen_tasks:
            rep = pearson_representation(task.features, task.labels)
            top_half = [np.mean(rep <= rep[p]) >= 0.5 for p in range(m)]
            expected[task.name] = tuple(int(p) for p in np.flatnonzero(top_half))
        before = training_state(agent)
        for _ in range(3):
            assert {
                task.name: model.select(task) for task in tiny_suite.unseen_tasks
            } == expected
        assert model.select_all_unseen(tiny_suite) == expected
        engine = BatchedGreedyEngine(agent, config.env)
        assert engine.select_tasks(tiny_suite.unseen_tasks) == expected
        assert training_state(agent) == before


class TestWrongFeatureCount:
    @pytest.fixture(scope="class")
    def narrow_suite(self):
        return generate_suite(
            SyntheticSpec(
                name="narrow", n_instances=80, n_features=10, n_seen=1,
                n_unseen=2, task_informative=2, n_concepts=2, seed=5,
            )
        )

    def test_every_path_names_both_counts(self, fitted_tiny_model, narrow_suite):
        message = r"has 10 features; the agent serves 12-feature tasks"
        task = narrow_suite.unseen_tasks[0]
        with pytest.raises(DataValidationError, match=message):
            fitted_tiny_model.select(task)
        with pytest.raises(DataValidationError, match=message):
            fitted_tiny_model.select_all_unseen(narrow_suite)
        engine = BatchedGreedyEngine.from_model(fitted_tiny_model)
        with pytest.raises(DataValidationError, match=message):
            engine.select_tasks(narrow_suite.unseen_tasks)


class TestNonFiniteRepresentation:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_names_the_first_non_finite_representation(
        self, fitted_tiny_model, tiny_split, value
    ):
        train, _ = tiny_split
        good = [
            pearson_representation(task.features, task.labels)
            for task in train.unseen_tasks
        ]
        broken = good[0].copy()
        broken[4] = value
        engine = BatchedGreedyEngine.from_model(fitted_tiny_model)
        with pytest.raises(
            DataValidationError, match="representation 1 has a non-finite entry"
        ):
            engine.select_representations([good[1], broken, broken])
        # The valid representations alone still answer.
        assert len(engine.select_representations(good)) == len(good)
