"""PA-FEAT core: the FEAT framework, Inter-Task Scheduler and Intra-Task Explorer.

Public entry point is :class:`repro.core.pafeat.PAFeat`::

    from repro import PAFeat, PAFeatConfig, load_mini_dataset

    suite = load_mini_dataset("yeast")
    train, test = suite.split_rows(0.7, np.random.default_rng(0))
    model = PAFeat(PAFeatConfig(n_iterations=150)).fit(train)
    subset = model.select(train.unseen_tasks[0])
"""

from repro.core.config import (
    AgentConfig,
    ClassifierConfig,
    EnvConfig,
    ITEConfig,
    ITSConfig,
    PAFeatConfig,
)
from repro.core.env import FeatureSelectionEnv
from repro.core.etree import ETree, ETreeNode
from repro.core.feat import FEATTrainer, UniformTaskSampler
from repro.core.ite import IntraTaskExplorer
from repro.core.its import InterTaskScheduler, TaskProgress
from repro.core.pafeat import PAFeat
from repro.core.state import EnvState, ScanEncoder, encode_state, state_dim

__all__ = [
    "AgentConfig",
    "ClassifierConfig",
    "ETree",
    "ETreeNode",
    "EnvConfig",
    "EnvState",
    "FEATTrainer",
    "FeatureSelectionEnv",
    "ITEConfig",
    "ITSConfig",
    "InterTaskScheduler",
    "IntraTaskExplorer",
    "PAFeat",
    "PAFeatConfig",
    "ScanEncoder",
    "TaskProgress",
    "UniformTaskSampler",
    "encode_state",
    "state_dim",
]
