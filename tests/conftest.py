"""Shared fixtures: tiny synthetic suites and a pre-fitted model.

Expensive fixtures are session-scoped so the suite stays fast: the tiny
trained PA-FEAT model is fitted once and shared by every test that only
*reads* it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ClassifierConfig, EnvConfig, PAFeatConfig
from repro.core.pafeat import PAFeat
from repro.data.synthetic import SyntheticSpec, generate_suite
from repro.rl.replay import ReplayBatch, ReplayBuffer
from repro.rl.trajectory import Trajectory


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _tsan_gate():
    """The REPRO_TSAN=1 CI lane's per-test gate.

    When the runtime sanitizer is armed process-wide (the parity matrix
    entry exports ``REPRO_TSAN=1``), every test doubles as a race drill:
    any cross-context unlocked write observed during it fails it here.
    Resetting per test also bounds the recorder's memory over the suite.
    Tests that arm the sanitizer themselves (``test_tsan``, the chaos
    drills) leave it disabled at module scope or restore state on exit,
    so this gate sees a clean recorder either way.
    """
    from repro.analysis import tsan

    if not tsan.tsan_enabled():
        yield
        return
    tsan.reset()
    yield
    try:
        found = tsan.violations()
        assert not found, f"tsan violations during test: {found}"
    finally:
        tsan.reset()


TINY_SPEC = SyntheticSpec(
    name="tiny",
    n_instances=160,
    n_features=12,
    n_seen=3,
    n_unseen=2,
    task_informative=3,
    n_concepts=2,
    seed=77,
)


@pytest.fixture(scope="session")
def tiny_suite():
    """A small multi-label suite: 160 rows, 12 features, 3 seen + 2 unseen."""
    return generate_suite(TINY_SPEC)


@pytest.fixture(scope="session")
def tiny_split(tiny_suite):
    """Deterministic 70/30 row split of the tiny suite."""
    return tiny_suite.split_rows(0.7, np.random.default_rng(0))


def zero_reward(subset) -> float:
    """A reward function for envs whose tests read states, not rewards."""
    del subset
    return 0.0


def make_episode(
    actions=(),
    rewards=None,
    states=None,
    *,
    task_id=0,
    gamma=0.99,
    state_dim=2,
    selected_features=None,
    final_reward=0.0,
) -> Trajectory:
    """A finished episode, built as ``FEATTrainer.run_episode`` builds one.

    ``rewards`` default to zeros and ``states`` to zero rows of width
    ``state_dim``.  The subset defaults to the positions the select
    actions took, scanning from position 0.  ``gamma`` discounts the
    stored returns-to-go.
    """
    actions = list(actions)
    if rewards is None:
        rewards = [0.0] * len(actions)
    if states is None:
        states = np.zeros((len(actions), state_dim))
    if selected_features is None:
        selected_features = [step for step, action in enumerate(actions) if action]
    return Trajectory(
        task_id=task_id,
        states=states,
        actions=actions,
        rewards=rewards,
        gamma=gamma,
        selected_features=tuple(selected_features),
        final_reward=final_reward,
    )


def episode_batch(*episodes: Trajectory, rows=None) -> ReplayBatch:
    """Every step of ``episodes`` (or the write-order ``rows``) as one batch."""
    buffer = ReplayBuffer(max(1, sum(episode.length for episode in episodes)))
    for episode in episodes:
        buffer.add_trajectory(episode)
    indices = np.arange(len(buffer)) if rows is None else np.asarray(rows, dtype=int)
    return buffer.batch(indices)


def fast_config(**overrides) -> PAFeatConfig:
    """A PA-FEAT config sized for unit tests (a fit takes ~1 second)."""
    defaults = dict(
        n_iterations=25,
        episodes_per_iteration=2,
        updates_per_iteration=2,
        checkpoint_every=10,
        seed=0,
        env=EnvConfig(max_feature_ratio=0.6),
        classifier=ClassifierConfig(n_epochs=5),
    )
    defaults.update(overrides)
    return PAFeatConfig(**defaults)


@pytest.fixture(scope="session")
def fitted_tiny_model(tiny_split):
    """A PA-FEAT model fitted on the tiny suite (shared, read-only)."""
    train, _ = tiny_split
    return PAFeat(fast_config()).fit(train)
