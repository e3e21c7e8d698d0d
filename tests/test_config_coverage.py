"""Exhaustive validation coverage for every config dataclass."""

import ast
from dataclasses import fields
from functools import cache
from pathlib import Path

import pytest

from repro.core import config as config_module
from repro.core.config import (
    AgentConfig,
    ClassifierConfig,
    EnvConfig,
    ITEConfig,
    ITSConfig,
    PAFeatConfig,
)


class TestEnvConfig:
    def test_defaults_valid(self):
        config = EnvConfig()
        assert 0 < config.max_feature_ratio <= 1

    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5])
    def test_bad_ratio(self, ratio):
        with pytest.raises(ValueError):
            EnvConfig(max_feature_ratio=ratio)

    def test_bad_metric(self):
        with pytest.raises(ValueError):
            EnvConfig(reward_metric="rmse")

    def test_negative_size_penalty(self):
        with pytest.raises(ValueError):
            EnvConfig(size_penalty=-0.1)

    def test_zero_size_penalty_allowed(self):
        assert EnvConfig(size_penalty=0.0).size_penalty == 0.0


class TestAgentConfig:
    def test_empty_hidden(self):
        with pytest.raises(ValueError):
            AgentConfig(hidden=())

    @pytest.mark.parametrize("gamma", [-0.1, 1.1])
    def test_bad_gamma(self, gamma):
        with pytest.raises(ValueError):
            AgentConfig(gamma=gamma)

    def test_gamma_boundaries_allowed(self):
        assert AgentConfig(gamma=0.0).gamma == 0.0
        assert AgentConfig(gamma=1.0).gamma == 1.0

    def test_epsilon_ordering(self):
        with pytest.raises(ValueError):
            AgentConfig(epsilon_start=0.2, epsilon_end=0.8)

    def test_prioritized_flag_default_off(self):
        assert not AgentConfig().prioritized_replay


class TestITSConfig:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            ITSConfig(trajectory_window=0)

    def test_bad_min_trajectories(self):
        with pytest.raises(ValueError):
            ITSConfig(min_trajectories=0)


class TestITEConfig:
    def test_bad_constant(self):
        with pytest.raises(ValueError):
            ITEConfig(exploration_constant=0.0)

    def test_bad_tree_cap(self):
        with pytest.raises(ValueError):
            ITEConfig(max_tree_nodes=0)

    def test_pe_switch(self):
        assert ITEConfig().use_policy_exploitation
        assert not ITEConfig(use_policy_exploitation=False).use_policy_exploitation


class TestClassifierConfig:
    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            ClassifierConfig(n_epochs=0)

    def test_empty_hidden(self):
        with pytest.raises(ValueError):
            ClassifierConfig(hidden=())


class TestPAFeatConfig:
    def test_bad_episodes(self):
        with pytest.raises(ValueError):
            PAFeatConfig(episodes_per_iteration=0)

    def test_zero_updates_allowed(self):
        assert PAFeatConfig(updates_per_iteration=0).updates_per_iteration == 0

    def test_bad_checkpoint_interval(self):
        with pytest.raises(ValueError):
            PAFeatConfig(checkpoint_every=0)

    def test_nested_configs_compose(self):
        config = PAFeatConfig(env=EnvConfig(max_feature_ratio=0.3))
        assert config.env.max_feature_ratio == 0.3

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PAFeatConfig().n_iterations = 5

    def test_hashable_for_experiment_keys(self):
        assert hash(PAFeatConfig()) == hash(PAFeatConfig())


CONFIG_PATH = Path(config_module.__file__).resolve()
CONFIG_FIELDS = [
    f"{cls.__name__}.{field.name}"
    for cls in (
        EnvConfig, AgentConfig, ITSConfig, ITEConfig, ClassifierConfig, PAFeatConfig
    )
    for field in fields(cls)
]


@cache
def attributes_read_outside_config() -> frozenset[str]:
    """Every attribute name loaded in ``repro`` outside ``core/config.py``."""
    names: set[str] = set()
    for path in CONFIG_PATH.parent.parent.rglob("*.py"):
        if path.resolve() == CONFIG_PATH:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    return frozenset(names)


@pytest.mark.parametrize("qualified", CONFIG_FIELDS)
def test_every_config_field_is_read(qualified):
    """A field only ``core/config.py`` mentions is a knob that does nothing:
    validated, documented and saved with every model, yet never read."""
    assert qualified.split(".")[1] in attributes_read_outside_config(), (
        f"{qualified} is never read as an attribute outside core/config.py"
    )
