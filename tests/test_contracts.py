"""Runtime contract layer: toggling, boundary checks and integration.

Contracts are off by default (zero-cost pass-throughs); enabling them via
:func:`set_contracts_enabled` (or ``REPRO_CONTRACTS=1``) turns boundary
violations — NaN states, malformed probability vectors, out-of-range
rewards — into immediate :class:`ContractViolation` errors at the seam
where the bad value enters, instead of NaN-poisoned training hundreds of
steps later.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.contracts import (
    ContractViolation,
    check_finite,
    check_probability_vector,
    check_scalar_range,
    check_state_batch,
    contracts_enabled,
    set_contracts_enabled,
)


@pytest.fixture
def contracts_on():
    previous = set_contracts_enabled(True)
    yield
    set_contracts_enabled(previous)


@pytest.fixture
def contracts_off():
    previous = set_contracts_enabled(False)
    yield
    set_contracts_enabled(previous)


# ---------------------------------------------------------------------------
# Toggle semantics
# ---------------------------------------------------------------------------

def test_toggle_round_trip():
    original = contracts_enabled()
    previous = set_contracts_enabled(not original)
    assert previous == original
    assert contracts_enabled() == (not original)
    set_contracts_enabled(original)
    assert contracts_enabled() == original


def test_disabled_checks_are_pass_throughs(contracts_off):
    bad = np.array([np.nan, 1.0])
    assert check_finite("b", bad) is bad
    assert check_state_batch("b", bad, 2) is bad
    assert check_probability_vector("b", bad) is bad
    assert check_scalar_range("b", 7.0, 0.0, 1.0) == 7.0


def test_violation_is_an_assertion_error(contracts_on):
    with pytest.raises(AssertionError):
        check_finite("b", np.array([np.inf]))


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def test_check_finite(contracts_on):
    value = np.array([1.0, -2.0])
    assert check_finite("b", value) is value
    with pytest.raises(ContractViolation, match="b"):
        check_finite("b", np.array([1.0, np.nan]))


def test_check_state_batch_accepts_vector_and_batch(contracts_on):
    vector = np.zeros(4)
    batch = np.zeros((3, 4))
    assert check_state_batch("b", vector, 4) is vector
    assert check_state_batch("b", batch, 4) is batch


def test_check_state_batch_rejects_bad_shapes_and_values(contracts_on):
    with pytest.raises(ContractViolation):
        check_state_batch("b", np.zeros((3, 5)), 4)      # wrong trailing dim
    with pytest.raises(ContractViolation):
        check_state_batch("b", np.zeros((2, 2, 4)), 4)   # wrong rank
    with pytest.raises(ContractViolation):
        check_state_batch("b", np.zeros(4, dtype=np.int64), 4)  # wrong dtype
    nan_state = np.zeros((2, 4))
    nan_state[1, 0] = np.nan
    with pytest.raises(ContractViolation):
        check_state_batch("b", nan_state, 4)


def test_check_probability_vector(contracts_on):
    p = np.array([0.25, 0.75])
    assert check_probability_vector("b", p, 2) is p
    with pytest.raises(ContractViolation):
        check_probability_vector("b", np.array([0.6, 0.6]))   # does not sum to 1
    with pytest.raises(ContractViolation):
        check_probability_vector("b", np.array([-0.2, 1.2]))  # negative mass
    with pytest.raises(ContractViolation):
        check_probability_vector("b", p, 3)                   # wrong length


def test_check_scalar_range(contracts_on):
    assert check_scalar_range("b", 0.5, 0.0, 1.0) == 0.5
    # Tolerance absorbs float fuzz at the boundary.
    assert check_scalar_range("b", 1.0 + 1e-12, 0.0, 1.0) == 1.0 + 1e-12
    with pytest.raises(ContractViolation):
        check_scalar_range("b", 1.5, 0.0, 1.0)
    with pytest.raises(ContractViolation):
        check_scalar_range("b", float("nan"), 0.0, 1.0)


def test_violation_message_names_boundary_and_shape(contracts_on):
    with pytest.raises(ContractViolation) as excinfo:
        check_state_batch("env.encode", np.zeros((2, 3)), 4)
    message = str(excinfo.value)
    assert "env.encode" in message
    assert "(2, 3)" in message


# ---------------------------------------------------------------------------
# Wired boundaries
# ---------------------------------------------------------------------------

def test_agent_rejects_nan_state_when_enabled(contracts_on, rng):
    from repro.rl.agent import DuelingDQNAgent
    from repro.rl.schedules import ConstantSchedule

    agent = DuelingDQNAgent(
        state_dim=6,
        n_actions=2,
        hidden=(8,),
        gamma=0.9,
        lr=1e-3,
        epsilon_schedule=ConstantSchedule(0.0),
        target_sync_every=10,
        rng=rng,
    )
    state = np.zeros(6)
    agent.q_values(state)  # clean state passes
    state[2] = np.nan
    with pytest.raises(ContractViolation, match="agent.q_values"):
        agent.q_values(state)


def test_agent_accepts_nan_state_when_disabled(contracts_off, rng):
    from repro.rl.agent import DuelingDQNAgent
    from repro.rl.schedules import ConstantSchedule

    agent = DuelingDQNAgent(
        state_dim=6,
        n_actions=2,
        hidden=(8,),
        gamma=0.9,
        lr=1e-3,
        epsilon_schedule=ConstantSchedule(0.0),
        target_sync_every=10,
        rng=rng,
    )
    state = np.full(6, np.nan)
    # Disabled contracts never raise — the legacy (pre-contract) behaviour.
    agent.q_values(state)


def test_env_encode_passes_contract_on_real_episode(contracts_on):
    from repro.core.config import EnvConfig
    from repro.core.env import FeatureSelectionEnv
    from tests.conftest import zero_reward

    env = FeatureSelectionEnv(
        task_id=0,
        task_representation=np.linspace(0.1, 0.9, 5),
        reward_fn=zero_reward,
        config=EnvConfig(),
    )
    state = env.reset()
    assert state.shape == (env.state_dim,)
    while not env.done:
        state, _, _, _ = env.step(0)
        assert np.all(np.isfinite(state))


def test_kernel_checks_each_state_row_it_scores(contracts_on, rng):
    """The lockstep kernel scores first-layer pre-activations, not states;
    with contracts on it still checks the full state row behind each one,
    in lookahead windows and in lockstep rounds."""
    from repro.core.batch import batched_greedy_subsets
    from repro.core.config import EnvConfig
    from repro.core.state import state_dim
    from repro.rl.agent import DuelingDQNAgent
    from repro.rl.schedules import ConstantSchedule

    m = 6
    agent = DuelingDQNAgent(
        state_dim(m), 2, (8,), 0.9, 1e-3, ConstantSchedule(0.0), 10, rng
    )
    advantage = agent.online.layers[-1].advantage_head.bias.value
    representations = [np.abs(rng.normal(size=m)) for _ in range(3)]
    corr = np.abs(rng.normal(size=(m, m)))
    corr[:, 0] = np.nan  # the redundancy a row shows once it selects feature 0
    advantage[0] = 1e3  # deselect everything: windows of 1, 2 and 3 rows
    config = EnvConfig(max_feature_ratio=1.0)
    assert batched_greedy_subsets(agent, representations[:1], config, corr) == [()]
    advantage[0], advantage[1] = 0.0, 1e3  # select everything, in lockstep
    with pytest.raises(ContractViolation, match="batch.greedy"):
        batched_greedy_subsets(agent, representations, config, corr)
