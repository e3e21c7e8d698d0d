"""Every greedy episode is the lockstep kernel's, bit-exact with env stepping.

The kernel's whole value proposition is "same answers, fewer forwards",
so the core test is a property: for random agents, random task
representations, random budgets, with and without a feature-correlation
matrix, :func:`repro.core.batch.batched_greedy_subsets` returns exactly
what per-task :func:`repro.core.feat.greedy_subset`, the env-stepping
reference, returns.  Feature counts straddle numpy's pairwise summation
block size (128) so the kernel's ``add.reduce`` vectorisation is
exercised on both sides of the blocking boundary.  Batch sizes straddle
the lookahead cap (``FORWARD_ROWS // 2`` active rows), with sparse and
dense random policies, and stub policies pin the forwards each round
issues.  A second property pins training-time greedy scoring,
:meth:`repro.core.feat.FEATTrainer.greedy_subsets`, to the same
reference, action-counter ticks included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batch import FORWARD_ROWS, batched_greedy_subsets, served_subsets
from repro.core.config import EnvConfig, PAFeatConfig
from repro.core.env import FeatureSelectionEnv
from repro.core.feat import FEATTrainer, greedy_subset
from repro.core.state import ScanEncoder, state_dim
from repro.rl.agent import DuelingDQNAgent
from repro.rl.schedules import ConstantSchedule
from repro.serve import BatchedGreedyEngine
from tests.conftest import zero_reward


def make_agent(n_features: int, seed: int) -> DuelingDQNAgent:
    return DuelingDQNAgent(
        state_dim(n_features),
        2,
        (16, 16),
        0.9,
        1e-3,
        ConstantSchedule(0.0),
        100,
        np.random.default_rng(seed),
    )


def tune_select_rate(agent, representations, rate: float) -> None:
    """Shift the select action's advantage so that about ``rate`` of the
    tasks' states before any select choose "select": a sparse policy at a
    small rate, a dense one at a large rate.

    The cut falls midway between two of those states' Q-gaps, never on
    one: a gap moved to within rounding of 0 is a near-tie that forwards
    of different row counts may break differently (a property of the
    BLAS forward, not of the kernel).
    """
    encoder = ScanEncoder(np.stack(representations))
    m = encoder.n_features
    # Full states: each task's [rep | mask] beside its window's scalar rows.
    head = np.repeat(encoder.states[:, : 2 * m], m, axis=0)
    q = agent.q_values(np.hstack([head, encoder.window(slice(None), 0, m)]))
    gaps = np.sort(q[:, 1] - q[:, 0])
    above = min(max(int(rate * len(gaps)), 1), len(gaps) - 1)
    cut = (gaps[-above - 1] + gaps[-above]) / 2
    # Q = V + A - mean(A): raising A(select) by s raises the gap by s.
    agent.online.layers[-1].advantage_head.bias.value[1] -= cut


def sequential_select(agent, representation, config, feature_corr):
    """The reference path: one env-stepping greedy episode."""
    env = FeatureSelectionEnv(
        0, representation, zero_reward, config, feature_corr=feature_corr
    )
    return greedy_subset(agent, env)


class TestBitExactParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_features=st.integers(2, 24),
        mfr=st.floats(0.1, 1.0),
        with_corr=st.booleans(),
        n_tasks=st.integers(1, 9),
    )
    # Dead ReLUs give Q = [0, 0] at position 6 of the second task: an exact
    # tie, which both paths must break to the lowest action.
    @example(seed=863, n_features=10, mfr=1.0, with_corr=True, n_tasks=2)
    def test_batched_equals_sequential(self, seed, n_features, mfr, with_corr, n_tasks):
        rng = np.random.default_rng(seed)
        config = EnvConfig(max_feature_ratio=mfr)
        agent = make_agent(n_features, seed + 1)
        feature_corr = None
        if with_corr:
            corr = np.abs(rng.normal(size=(n_features, n_features)))
            feature_corr = (corr + corr.T) / 2
        representations = [
            np.abs(rng.normal(size=n_features)) for _ in range(n_tasks)
        ]
        batched = batched_greedy_subsets(
            agent, representations, config, feature_corr=feature_corr
        )
        expected = [
            sequential_select(agent, rep, config, feature_corr)
            for rep in representations
        ]
        assert batched == expected

    @pytest.mark.parametrize("n_features", [120, 200])
    def test_parity_past_pairwise_summation_block(self, n_features):
        """m > 128 exercises numpy's pairwise-summation blocking."""
        rng = np.random.default_rng(n_features)
        config = EnvConfig(max_feature_ratio=0.4)
        agent = make_agent(n_features, 7)
        representations = [np.abs(rng.normal(size=n_features)) for _ in range(5)]
        batched = batched_greedy_subsets(agent, representations, config)
        expected = [
            sequential_select(agent, rep, config, None) for rep in representations
        ]
        assert batched == expected

    def test_fitted_model_batched_matches_select(self, fitted_tiny_model, tiny_split):
        """End to end on a real fitted model: select_all_unseen == select loop."""
        train, _ = tiny_split
        expected = {
            task.name: fitted_tiny_model.select(task)
            for task in train.unseen_tasks
        }
        assert fitted_tiny_model.select_all_unseen() == expected


class _CountingAgent:
    """An agent as the kernel reads it, recording the rows of each forward."""

    def __init__(self, agent) -> None:
        self.agent = agent
        self.state_dim = agent.state_dim
        self.first_layer = agent.first_layer
        self.forwards: list[int] = []

    def act_preactivations(self, preactivations: np.ndarray) -> np.ndarray:
        self.forwards.append(preactivations.shape[0])
        return self.agent.act_preactivations(preactivations)


class _StubAgent:
    """A stub policy on a one-unit first layer ``(W, b)``: ``act_batch``
    and the kernel read the same pre-activations."""

    def __init__(self, n_features: int) -> None:
        self.state_dim = state_dim(n_features)
        self.first_layer = (np.zeros((self.state_dim, 1)), np.zeros(1))

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        weight, bias = self.first_layer
        return self.act_preactivations(np.atleast_2d(states) @ weight + bias)

    def act_preactivations(self, preactivations: np.ndarray) -> np.ndarray:
        return (preactivations[:, 0] > 0).astype(np.int64)


class _CursorThresholdAgent(_StubAgent):
    """A stub policy: select exactly when the cursor's |corr| exceeds 1/2.

    Its one unit reads the cursor scan scalar with bias -0.5."""

    def __init__(self, n_features: int) -> None:
        super().__init__(n_features)
        weight, bias = self.first_layer
        weight[2 * n_features + 1] = 1.0  # the |corr| scan scalar
        bias[0] = -0.5


def picks(n_features: int, *positions: int) -> np.ndarray:
    """A representation the threshold stub selects ``positions`` of."""
    rep = np.full(n_features, 0.25)
    rep[list(positions)] = 0.75
    return rep


def counted_run(agent, representations, config, feature_corr=None):
    """The kernel's subsets, checked against the reference, and its forwards."""
    counting = _CountingAgent(agent)
    subsets = batched_greedy_subsets(
        counting, representations, config, feature_corr=feature_corr
    )
    expected = [
        sequential_select(agent, rep, config, feature_corr) for rep in representations
    ]
    assert subsets == expected
    return subsets, counting.forwards


class TestLookahead:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_features=st.integers(2, 40),
        mfr=st.floats(0.05, 1.0),
        with_corr=st.booleans(),
        n_tasks=st.sampled_from([1, 2, 32, 33, 63, 64, 65]),
        rate=st.sampled_from([None, 0.05, 0.2, 0.7]),
    )
    # Dead-ReLU exact ties: TestBitExactParity's, scored in B=2 lockstep
    # forwards; and ties inside lookahead blocks (offset 1 of a 2-position
    # window, offset 3 of a 4-position one) that the rounds commit as
    # deselects.
    @example(seed=863, n_features=10, mfr=1.0, with_corr=True, n_tasks=2, rate=None)
    @example(seed=9, n_features=16, mfr=1.0, with_corr=True, n_tasks=1, rate=None)
    def test_batched_equals_sequential_across_the_row_cap(
        self, seed, n_features, mfr, with_corr, n_tasks, rate
    ):
        """Random policies, untouched, sparse (a few selects per scan) and
        dense, at batch sizes on both sides of the lookahead cap."""
        rng = np.random.default_rng(seed)
        config = EnvConfig(max_feature_ratio=mfr)
        agent = make_agent(n_features, seed + 1)
        feature_corr = None
        if with_corr:
            corr = np.abs(rng.normal(size=(n_features, n_features)))
            feature_corr = (corr + corr.T) / 2
        representations = [
            np.abs(rng.normal(size=n_features)) for _ in range(n_tasks)
        ]
        if rate is not None:
            tune_select_rate(agent, representations, rate)
        _, forwards = counted_run(agent, representations, config, feature_corr)
        assert max(forwards) <= max(FORWARD_ROWS, n_tasks)

    @pytest.mark.parametrize("n_features", [65, 100, 200])
    @pytest.mark.parametrize("rate", [0.05, 0.7])
    def test_wide_scans_at_b1(self, n_features, rate):
        """m > FORWARD_ROWS at B=1: windows stop growing at the row cap."""
        rng = np.random.default_rng(n_features)
        config = EnvConfig(max_feature_ratio=0.5)
        agent = make_agent(n_features, 3)
        feature_corr = np.abs(rng.normal(size=(n_features, n_features)))
        representations = [np.abs(rng.normal(size=n_features))]
        tune_select_rate(agent, representations, rate)
        _, forwards = counted_run(agent, representations, config, feature_corr)
        assert max(forwards) <= FORWARD_ROWS

    def test_truncation_moves_a_batch_into_lookahead(self):
        """40 rows run in lockstep until 39 fill their two-feature budget;
        the one left then scans with growing windows."""
        m = 20
        config = EnvConfig(max_feature_ratio=2 / m)
        representations = [picks(m, 0, 1)] * 39 + [picks(m)]
        subsets, forwards = counted_run(
            _CursorThresholdAgent(m), representations, config
        )
        assert subsets == [(0, 1)] * 39 + [()]
        # Positions 2..19 deselected by the last row: windows 1, 2, 4, 8, 3.
        assert forwards == [40, 40, 1, 2, 4, 8, 3]

    def test_windows_end_on_the_last_feature_and_on_budget_hits(self):
        agent = _CursorThresholdAgent(20)
        # A select on the last feature, in the last window (positions 3..6
        # of 7): the episode ends there.
        subsets, forwards = counted_run(
            _CursorThresholdAgent(7), [picks(7, 6)], EnvConfig()
        )
        assert (subsets, forwards) == ([(6,)], [1, 2, 4])
        # Selects inside windows, the second filling the budget of two:
        # 0 | 1-2 | 3-6 commits at 5 | 6 | 7-8 | 9-12 commits at 9, done.
        budget_two = EnvConfig(max_feature_ratio=0.1)
        subsets, forwards = counted_run(agent, [picks(20, 5, 9)], budget_two)
        assert (subsets, forwards) == ([(5, 9)], [1, 2, 4, 1, 2, 4])
        # Two rows: the first fills its budget mid-scan, the second goes
        # on alone and its windows grow to the end of the scan.
        subsets, forwards = counted_run(
            agent, [picks(20, 2, 4), picks(20, 4, 15)], budget_two
        )
        assert subsets == [(2, 4), (4, 15)]
        # 2 rows: 0 | 1-2 commits at 2 | 3 | 4-5 commits at 4, row 0 done;
        # 1 row: 5 | 6-7 | 8-11 | 12-19 commits at 15, done.
        assert forwards == [2, 4, 2, 4, 1, 2, 4, 8]

    @pytest.mark.parametrize("n_features", [1, 2, 3, 7, 8, 64, 100, 127, 200])
    def test_forward_counts_at_b1(self, n_features):
        """Select nothing: windows 1, 2, 4, ... up to FORWARD_ROWS, so
        ceil(log2(m+1)) forwards for m < 2 * FORWARD_ROWS.  Select
        everything: one forward per scanned position."""
        rep = [np.linspace(0.1, 0.9, n_features)]
        _, forwards = counted_run(
            _DeselectEverythingAgent(n_features), rep, EnvConfig()
        )
        assert sum(forwards) == n_features
        assert max(forwards) <= FORWARD_ROWS
        if n_features < 2 * FORWARD_ROWS:
            assert len(forwards) == math.ceil(math.log2(n_features + 1))
        else:
            assert forwards[:7] == [1, 2, 4, 8, 16, 32, 64]
        half = EnvConfig(max_feature_ratio=0.5)
        subsets, forwards = counted_run(_SelectEverythingAgent(n_features), rep, half)
        assert forwards == [1] * len(subsets[0])

    @pytest.mark.parametrize("n_tasks", [33, 64, 65])
    def test_lockstep_above_half_the_row_cap(self, n_tasks):
        """More than FORWARD_ROWS // 2 active rows: one forward per position,
        the whole batch in each."""
        reps = [np.linspace(0.1, 0.9, 10)] * n_tasks
        _, forwards = counted_run(_DeselectEverythingAgent(10), reps, EnvConfig())
        assert forwards == [n_tasks] * 10
        # 32 rows take windows of at most 2 positions.
        _, forwards = counted_run(_DeselectEverythingAgent(10), reps[:32], EnvConfig())
        assert forwards == [32, 64, 64, 64, 64, 32]


class TestTrainerGreedySubsets:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_features=st.integers(1, 24),
        mfr=st.floats(0.01, 1.0),
        other_mfr=st.floats(0.01, 1.0),
        with_corr=st.booleans(),
        n_tasks=st.integers(1, 7),
        deselect=st.booleans(),
    )
    # The dead-ReLU tie of TestBitExactParity, at position 6 of task 11.
    @example(
        seed=863, n_features=10, mfr=1.0, other_mfr=1.0, with_corr=True,
        n_tasks=2, deselect=False,
    )
    # A budget of one feature on every env.
    @example(
        seed=5, n_features=12, mfr=0.01, other_mfr=0.1, with_corr=True,
        n_tasks=4, deselect=False,
    )
    def test_each_env_gets_its_reference_episode_and_ticks(
        self, seed, n_features, mfr, other_mfr, with_corr, n_tasks, deselect
    ):
        """One kernel call per (budget ratio, feature_corr) group of envs
        returns each env's ``greedy_subset`` in env order, and ticks the
        action counter once per reference step."""
        rng = np.random.default_rng(seed)
        agent = make_agent(n_features, seed + 1)
        if deselect:
            # A zeroed head ties every Q: the policy selects nothing.
            for parameter in agent.online.layers[-1].parameters():
                parameter.value[...] = 0.0
        feature_corr = None
        if with_corr:
            corr = np.abs(rng.normal(size=(n_features, n_features)))
            feature_corr = (corr + corr.T) / 2
        configs = [
            EnvConfig(max_feature_ratio=mfr),
            EnvConfig(max_feature_ratio=other_mfr),
        ]
        envs = {
            10 + task: FeatureSelectionEnv(
                10 + task,
                np.abs(rng.normal(size=n_features)),
                zero_reward,
                configs[task % 2],
                feature_corr=feature_corr if task % 4 < 2 else None,
            )
            for task in range(n_tasks)
        }
        trainer = FEATTrainer(envs, agent, PAFeatConfig(), np.random.default_rng(0))
        expected, steps = [], 0
        for task_id, env in envs.items():
            expected.append((task_id, greedy_subset(agent, env)))
            steps += env.position
        count = agent.action_count
        assert list(trainer.greedy_subsets().items()) == expected
        assert agent.action_count == count + steps
        if deselect:
            assert all(subset == () for _, subset in expected)
        backwards = list(envs)[::-1]
        assert list(trainer.greedy_subsets(backwards)) == backwards


class _DeselectEverythingAgent(_StubAgent):
    """A stub policy that never selects — exercises the empty fallback."""


class _SelectEverythingAgent(_StubAgent):
    """A stub policy that always selects, until its budget ends the episode."""

    def __init__(self, n_features: int) -> None:
        super().__init__(n_features)
        self.first_layer[1][0] = 1.0


class TestFallbackAndValidation:
    REPRESENTATIONS = [np.array([0.1, 0.9, 0.3]), np.array([0.7, 0.2, 0.4])]

    def test_empty_subset_falls_back_to_most_correlated(self):
        assert served_subsets([(), (2,)], self.REPRESENTATIONS) == [(1,), (2,)]
        assert served_subsets([(0, 2), ()], self.REPRESENTATIONS) == [(0, 2), (0,)]
        # The serving engine answers with the fallback, as select does.
        engine = BatchedGreedyEngine(
            _DeselectEverythingAgent(3), EnvConfig(max_feature_ratio=0.5)
        )
        assert engine.select_representations(self.REPRESENTATIONS) == [(1,), (0,)]

    def test_kernel_returns_the_policys_empty_subset(self):
        subsets = batched_greedy_subsets(
            _DeselectEverythingAgent(3),
            self.REPRESENTATIONS,
            EnvConfig(max_feature_ratio=0.5),
        )
        assert subsets == [(), ()]

    def test_empty_batch_is_empty_result(self):
        assert batched_greedy_subsets(make_agent(4, 0), [], EnvConfig()) == []

    def test_mismatched_feature_counts_rejected(self):
        with pytest.raises(ValueError, match="3-feature space"):
            batched_greedy_subsets(
                make_agent(3, 0), [np.ones(3), np.ones(4)], EnvConfig()
            )

    def test_bad_feature_corr_shape_rejected(self):
        with pytest.raises(ValueError, match="feature_corr"):
            batched_greedy_subsets(
                make_agent(3, 0), [np.ones(3)], EnvConfig(),
                feature_corr=np.ones((2, 2)),
            )


class TestEngineWrapper:
    def test_engine_validates_representation_length(self):
        engine = BatchedGreedyEngine(make_agent(5, 3), EnvConfig())
        assert engine.n_features == 5
        with pytest.raises(ValueError, match="5-feature tasks"):
            engine.select_representations([np.ones(4)])

    def test_engine_rejects_non_state_agent_dimension(self):
        class WeirdAgent:
            state_dim = 10  # 10 - 9 = 1 is odd: not 2m + 9 for any m >= 1

        with pytest.raises(ValueError, match="does not encode"):
            BatchedGreedyEngine(WeirdAgent(), EnvConfig())

    def test_engine_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchedGreedyEngine(make_agent(3, 0), EnvConfig(), max_batch_size=0)

    def test_engine_chunks_large_batches(self):
        """Chunking by max_batch_size never changes answers."""
        rng = np.random.default_rng(11)
        agent = make_agent(6, 5)
        representations = [np.abs(rng.normal(size=6)) for _ in range(10)]
        small = BatchedGreedyEngine(agent, EnvConfig(), max_batch_size=3)
        large = BatchedGreedyEngine(agent, EnvConfig(), max_batch_size=64)
        assert small.select_representations(representations) == (
            large.select_representations(representations)
        )

    def test_engine_from_model_selects_tasks(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        engine = BatchedGreedyEngine.from_model(fitted_tiny_model)
        result = engine.select_tasks(train.unseen_tasks)
        assert result == {
            task.name: fitted_tiny_model.select(task)
            for task in train.unseen_tasks
        }


class TestSelectAllUnseen:
    def test_uses_given_suite(self, fitted_tiny_model, tiny_suite):
        result = fitted_tiny_model.select_all_unseen(tiny_suite)
        assert set(result) == {task.name for task in tiny_suite.unseen_tasks}

    def test_requires_a_suite(self):
        from repro.core.pafeat import PAFeat
        from tests.conftest import fast_config

        with pytest.raises(RuntimeError, match="not fitted"):
            PAFeat(fast_config()).select_all_unseen()
