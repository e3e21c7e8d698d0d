"""Structured-data substrate: tables, tasks, synthetic datasets.

The paper evaluates on eight multi-label datasets (Mulan + PhysioNet 2012).
Those corpora are not redistributable here, so :mod:`repro.data.catalog`
provides seeded synthetic *twins* that match each dataset's shape (Table I of
the paper: #instances, #features, #seen tasks, #unseen tasks) and plant a
known relevant/redundant/noise feature structure so that feature-selection
quality is measurable against ground truth.
"""

from repro.data.catalog import (
    DATASETS,
    DatasetSpec,
    dataset_names,
    load_dataset,
    load_mini_dataset,
)
from repro.data.stats import mutual_information_scores, pearson_representation
from repro.data.synthetic import SyntheticSpec, generate_suite
from repro.data.table import StructuredTable
from repro.data.tasks import Task, TaskSuite

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "StructuredTable",
    "SyntheticSpec",
    "Task",
    "TaskSuite",
    "dataset_names",
    "generate_suite",
    "load_dataset",
    "load_mini_dataset",
    "mutual_information_scores",
    "pearson_representation",
]
