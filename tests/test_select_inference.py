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
from repro.core.state import EnvState, encode_state, state_dim
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
    the cursor's.  One hidden unit reads it less ``0.5 - 1/(2m)``, so the
    unit is positive from 0.5 up and 0 below, after the ReLU.  Every other
    weight is 0 but the value bias, 1, and the select advantage's weight
    on that unit: below 0.5 both Q are 1, from 0.5 up select wins
    outright.
    """

    def __init__(self, n_features: int) -> None:
        super().__init__(
            state_dim(n_features), 2, (8,), 0.9, 1e-3, ConstantSchedule(0.0), 10,
            np.random.default_rng(0),
        )
        for parameter in self.online.parameters():
            parameter.value[...] = 0.0
        weight, bias = self.first_layer
        weight[2 * n_features + 7, 0] = 1.0
        bias[0] = 1 / (2 * n_features) - 0.5
        head = self.online.layers[-1]
        head.value_head.bias.value[0] = 1.0
        head.advantage_head.weight.value[0, 1] = 1.0


class TestExactTies:
    def test_ties_break_to_the_lowest_action_on_every_path(self, tiny_suite):
        m = tiny_suite.n_features
        agent = _TieAgent(m)
        config = PAFeatConfig(env=EnvConfig(max_feature_ratio=1.0))
        model = PAFeat(config)
        model._loaded_agent = agent
        expected = {}
        for task in tiny_suite.unseen_tasks:
            rep = pearson_representation(task.features, task.labels)
            top_half = [np.mean(rep <= rep[p]) >= 0.5 for p in range(m)]
            expected[task.name] = tuple(int(p) for p in np.flatnonzero(top_half))
            # Every bottom-half cursor is an exact tie.
            for p in np.flatnonzero(np.logical_not(top_half)):
                state = encode_state(rep, EnvState((), int(p)), m)
                assert agent.q_values(state).tolist() == [[1.0, 1.0]]
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
