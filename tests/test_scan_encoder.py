"""The incremental scan encoder against a frozen copy of the original one.

:func:`reference_encode` is the body ``encode_state`` had before the
environment, the lockstep kernel and ``encode_state`` itself moved onto
:class:`repro.core.state.ScanEncoder`.  Trained weights were fitted on its
encodings, so every path must reproduce them bit for bit
(``np.array_equal``, not ``allclose``): full encodes, incremental rows at
B=1 and B>1, and every state ``env.step`` returns.  Feature counts
straddle numpy's pairwise-summation boundaries (8-way unrolling, the
128-element block).

The last class pins the lean Q forward (input normalised once per call)
to the layered one (normalised per layer).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EnvConfig
from repro.core.env import FeatureSelectionEnv
from repro.core.state import EnvState, ScanEncoder, encode_state, state_dim
from repro.nn.dueling import DuelingNetwork
from repro.rl.agent import DuelingDQNAgent
from repro.rl.schedules import ConstantSchedule
from tests.conftest import zero_reward

FEATURE_COUNTS = [1, 2, 7, 8, 9, 127, 128, 129, 200]


def reference_encode(
    task_representation: np.ndarray,
    state: EnvState,
    n_features: int,
    max_feature_ratio: float = 1.0,
    feature_corr: np.ndarray | None = None,
) -> np.ndarray:
    """The original, non-incremental ``encode_state``, frozen as the oracle."""
    task_representation = np.asarray(task_representation, dtype=np.float64).reshape(-1)
    encoded = np.zeros(state_dim(n_features))
    encoded[:n_features] = task_representation
    selected_idx = np.asarray(state.selected, dtype=np.int64)
    if state.selected:
        encoded[n_features + selected_idx] = 1.0

    scalars = encoded[2 * n_features :]
    scalars[0] = state.position / n_features
    if state.position < n_features:
        scalars[1] = task_representation[state.position]
    scalars[2] = len(state.selected) / n_features
    if state.selected:
        scalars[3] = float(np.mean(task_representation[selected_idx]))
    remaining = task_representation[state.position :]
    if remaining.size:
        scalars[4] = float(np.mean(remaining))
        scalars[5] = float(np.max(remaining))
    budget = max(1, int(np.floor(max_feature_ratio * n_features)))
    scalars[6] = max(0.0, (budget - len(state.selected)) / budget)
    if state.position < n_features:
        cursor_corr = task_representation[state.position]
        scalars[7] = float(np.mean(task_representation <= cursor_corr))
        if feature_corr is not None and state.selected:
            scalars[8] = float(np.max(feature_corr[state.position, selected_idx]))
    return encoded


def representations(rng: np.random.Generator, n_rows: int, m: int) -> np.ndarray:
    """|corr|-like rows at a random scale, with ties (repeated values)."""
    reps = np.abs(rng.normal(size=(n_rows, m))) * rng.uniform(0.05, 3.0)
    if m > 2:
        reps[:, rng.integers(m)] = reps[:, rng.integers(m)]
    return reps


def correlation(rng: np.random.Generator, m: int) -> np.ndarray:
    """Deliberately asymmetric, so reading a row for a column fails."""
    return np.abs(rng.normal(size=(m, m)))


def random_state(rng: np.random.Generator, m: int, budget: int) -> EnvState:
    """A logical state an episode can reach: at most ``budget`` selected."""
    position = int(rng.integers(m + 1))
    count = int(rng.integers(min(position, budget) + 1))
    selected = rng.choice(position, size=count, replace=False) if count else ()
    return EnvState(tuple(int(i) for i in selected), position)


@pytest.fixture(params=[False, True], ids=["no-corr", "corr"])
def with_corr(request: pytest.FixtureRequest) -> bool:
    return bool(request.param)


@pytest.mark.parametrize("m", FEATURE_COUNTS)
class TestMatchesReference:
    def test_full_encodes(self, m: int, with_corr: bool) -> None:
        rng = np.random.default_rng(m)
        corr = correlation(rng, m) if with_corr else None
        for mfr in (1.0, 0.3):
            budget = max(1, int(np.floor(mfr * m)))
            rep = representations(rng, 1, m)[0]
            states = [EnvState((), 0), EnvState((), m), EnvState((0,), m)]
            states += [random_state(rng, m, budget) for _ in range(12)]
            for state in states:
                expected = reference_encode(rep, state, m, mfr, corr)
                assert np.array_equal(encode_state(rep, state, m, mfr, corr), expected)

    @pytest.mark.parametrize("n_rows", [1, 5])
    def test_incremental_rows(self, m: int, with_corr: bool, n_rows: int) -> None:
        """Lockstep scans, as the kernel drives them, truncations included."""
        rng = np.random.default_rng(1000 + m)
        corr = correlation(rng, m) if with_corr else None
        mfr = 0.4
        reps = representations(rng, n_rows, m)
        encoder = ScanEncoder(reps, mfr, corr)
        selected: list[list[int]] = [[] for _ in range(n_rows)]
        active = list(range(n_rows))
        rows: slice | np.ndarray = slice(None)
        for position in range(m):
            for i in active:
                expected = reference_encode(
                    reps[i], EnvState(tuple(selected[i]), position), m, mfr, corr
                )
                assert np.array_equal(encoder.states[i], expected)
            survivors, choosing = [], []
            for i in active:
                if rng.random() < 0.5:
                    selected[i].append(position)
                    choosing.append(i)
                if position + 1 < m and len(selected[i]) < encoder.budget:
                    survivors.append(i)
            if len(choosing) == 1:
                encoder.select(choosing[0], position)
            elif choosing:
                encoder.select(np.asarray(choosing), position)
            if not survivors:
                break
            if len(survivors) < len(active):
                active = survivors
                rows = np.asarray(active)
            encoder.move(position + 1, rows)

    def test_reset_rows_of_a_batch(self, m: int, with_corr: bool) -> None:
        rng = np.random.default_rng(2000 + m)
        corr = correlation(rng, m) if with_corr else None
        reps = representations(rng, 4, m)
        encoder = ScanEncoder(reps, 0.5, corr)
        for _ in range(10):
            row = int(rng.integers(4))
            state = random_state(rng, m, encoder.budget)
            encoder.reset(row, state)
            expected = reference_encode(reps[row], state, m, 0.5, corr)
            assert np.array_equal(encoder.states[row], expected)

    def test_window_rows(self, m: int, with_corr: bool) -> None:
        """Row (i, j) of a lookahead block is the state row i reaches at
        ``position + j`` by deselecting the features in between; the
        encoder's own states stay as they were."""
        rng = np.random.default_rng(4000 + m)
        corr = correlation(rng, m) if with_corr else None
        reps = representations(rng, 3, m)
        encoder = ScanEncoder(reps, 0.5, corr)
        for _ in range(3):
            position = int(rng.integers(m))
            selected = []
            for row in range(3):
                count = int(rng.integers(min(position, encoder.budget) + 1))
                picked = rng.choice(position, size=count, replace=False)
                selected.append(tuple(int(i) for i in picked))
                encoder.reset(row, EnvState(selected[row], position))
            before = encoder.states.copy()
            for rows, ids in ((slice(None), [0, 1, 2]), (np.array([2, 0]), [2, 0])):
                # The widest window ends on the last feature.
                for width in {1, m - position, int(rng.integers(1, m - position + 1))}:
                    block = encoder.window(rows, position, width)
                    assert block.shape == (len(ids) * width, state_dim(m))
                    for index, (row, j) in enumerate(
                        (row, j) for row in ids for j in range(width)
                    ):
                        state = EnvState(selected[row], position + j)
                        expected = reference_encode(reps[row], state, m, 0.5, corr)
                        assert np.array_equal(block[index], expected)
            assert np.array_equal(encoder.states, before)

    def test_env_step_returns(self, m: int, with_corr: bool) -> None:
        """Random-policy episodes from default and ITE-style mid-episode starts."""
        rng = np.random.default_rng(3000 + m)
        corr = correlation(rng, m) if with_corr else None
        for mfr in (1.0, 0.25):
            rep = representations(rng, 1, m)[0]
            env = FeatureSelectionEnv(
                0, rep, zero_reward, EnvConfig(max_feature_ratio=mfr),
                feature_corr=corr,
            )
            for episode in range(4):
                start = (
                    EnvState((), 0)
                    if episode == 0
                    else random_state(rng, m, env.max_selectable - 1)
                )
                returned = [env.reset_to(start)]
                logical = [EnvState(selected=env.selected, position=env.position)]
                while not env.done:
                    state, _, _, _ = env.step(int(rng.integers(2)))
                    returned.append(state)
                    logical.append(
                        EnvState(selected=env.selected, position=env.position)
                    )
                # Compared after the episode: every returned state is its
                # own memory, unchanged by later steps.
                for state, at in zip(returned, logical):
                    assert np.array_equal(state, reference_encode(rep, at, m, mfr, corr))


def test_batch_of_several_percentile_blocks() -> None:
    """The percentile table is built in blocks of rows (11 rows at m = 300):
    every row of a three-block batch encodes as the reference does."""
    rng = np.random.default_rng(5)
    m = 300
    reps = representations(rng, 25, m)
    encoder = ScanEncoder(reps)
    for position in (0, 1, m // 2, m - 1):
        encoder.move(position, slice(None))
        for row in range(25):
            expected = reference_encode(reps[row], EnvState((), position), m)
            assert np.array_equal(encoder.states[row], expected)


class TestLeanForward:
    @pytest.mark.parametrize("hidden", [(64,), (16, 16)])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_infer_equals_layered_forward(self, hidden: tuple[int, ...], batch: int) -> None:
        rng = np.random.default_rng(batch + len(hidden))
        dim = state_dim(72)
        network = DuelingNetwork(dim, 2, hidden, rng)
        states = rng.normal(size=(batch, dim))
        layered = network.forward(states)
        assert np.array_equal(network.infer(states), layered)
        agent = DuelingDQNAgent(
            dim, 2, hidden, 0.9, 1e-3, ConstantSchedule(0.0), 100, rng
        )
        agent.online = network
        assert np.array_equal(agent.q_values(states), layered)
        if batch == 1:
            assert np.array_equal(agent.q_values(states[0]), layered)

    def test_linear_keeps_its_width_check(self) -> None:
        network = DuelingNetwork(state_dim(4), 2, (8,), np.random.default_rng(0))
        with pytest.raises(ValueError, match="expected input with 17 features"):
            network.infer(np.zeros((3, 16)))
