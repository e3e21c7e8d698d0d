"""PA-FEAT reproduction: fast feature selection via progress-aware MT-DRL.

Reproduces Zhang et al., "PA-FEAT: Fast Feature Selection for Structured
Data via Progress-Aware Multi-Task Deep Reinforcement Learning" (ICDE 2023),
including every substrate it depends on: a NumPy deep-learning stack
(:mod:`repro.nn`), an RL toolkit (:mod:`repro.rl`), structured-data and
synthetic-dataset machinery (:mod:`repro.data`), evaluation/reward
components (:mod:`repro.eval`), the PA-FEAT core (:mod:`repro.core`), ten
baselines (:mod:`repro.baselines`) and the experiment harness regenerating
every table and figure (:mod:`repro.experiments`).

Quickstart::

    import numpy as np
    from repro import PAFeat, PAFeatConfig, load_mini_dataset

    suite = load_mini_dataset("water-quality")
    train, test = suite.split_rows(0.7, np.random.default_rng(0))
    model = PAFeat(PAFeatConfig(n_iterations=100)).fit(train)
    for task in train.unseen_tasks:
        print(task.name, model.select(task))
"""

from repro.core.config import (
    AgentConfig,
    ClassifierConfig,
    EnvConfig,
    ITEConfig,
    ITSConfig,
    PAFeatConfig,
)
from repro.core.analysis import explain_selection, policy_feature_scores
from repro.core.artifact import load_model, save_model
from repro.core.pafeat import PAFeat
from repro.data.arff import load_arff_suite
from repro.errors import ReproError
from repro.data.catalog import dataset_names, load_dataset, load_mini_dataset
from repro.data.synthetic import SyntheticSpec, generate_suite
from repro.data.tasks import Task, TaskSuite
from repro.eval.svm import evaluate_subset_with_svm

__version__ = "1.0.0"

__all__ = [
    "AgentConfig",
    "ClassifierConfig",
    "EnvConfig",
    "ITEConfig",
    "ITSConfig",
    "PAFeat",
    "PAFeatConfig",
    "ReproError",
    "SyntheticSpec",
    "Task",
    "TaskSuite",
    "__version__",
    "dataset_names",
    "evaluate_subset_with_svm",
    "explain_selection",
    "generate_suite",
    "load_arff_suite",
    "load_dataset",
    "load_mini_dataset",
    "load_model",
    "policy_feature_scores",
    "save_model",
]
