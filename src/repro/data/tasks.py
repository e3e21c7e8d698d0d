"""Tasks and task suites over a shared feature space.

Definitions 1-4 of the paper: a *task* is (feature space, label space,
predictive function); *seen* tasks have observed label spaces, *unseen*
tasks share the feature space but their labels arrive later.  A
:class:`TaskSuite` bundles one :class:`~repro.data.table.StructuredTable`
with the seen/unseen partition of its label columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.table import StructuredTable
from repro.errors import BoundsError


@dataclass(frozen=True)
class Task:
    """One predictive task: a named label column over the shared features.

    ``ground_truth_features`` is only populated for synthetic data, where the
    generator knows which features actually drive the label; it is used by
    tests and diagnostics, never by selection algorithms.
    """

    name: str
    label_index: int
    table: StructuredTable = field(repr=False, compare=False)
    ground_truth_features: tuple[int, ...] | None = field(default=None, compare=False)

    @property
    def n_features(self) -> int:
        return self.table.n_features

    @property
    def labels(self) -> np.ndarray:
        return self.table.label_column(self.label_index)

    @property
    def features(self) -> np.ndarray:
        return self.table.features


class TaskSuite:
    """A shared feature space with seen and unseen task partitions."""

    def __init__(
        self,
        name: str,
        table: StructuredTable,
        seen_label_indices: Sequence[int],
        unseen_label_indices: Sequence[int],
        ground_truth: dict[int, tuple[int, ...]] | None = None,
    ) -> None:
        self.name = name
        self.table = table
        seen = [int(i) for i in seen_label_indices]
        unseen = [int(i) for i in unseen_label_indices]
        overlap = set(seen) & set(unseen)
        if overlap:
            raise ValueError(f"label columns in both partitions: {sorted(overlap)}")
        all_indices = seen + unseen
        if len(set(all_indices)) != len(all_indices):
            raise ValueError("duplicate label indices within a partition")
        for index in all_indices:
            if not 0 <= index < table.n_labels:
                raise BoundsError(
                    f"label index {index} out of range [0, {table.n_labels})"
                )
        ground_truth = ground_truth or {}
        self.seen_tasks = [self._make_task(i, ground_truth) for i in seen]
        self.unseen_tasks = [self._make_task(i, ground_truth) for i in unseen]

    def _make_task(self, index: int, ground_truth: dict[int, tuple[int, ...]]) -> Task:
        return Task(
            name=self.table.label_names[index],
            label_index=index,
            table=self.table,
            ground_truth_features=ground_truth.get(index),
        )

    @property
    def n_features(self) -> int:
        return self.table.n_features

    @property
    def n_seen(self) -> int:
        return len(self.seen_tasks)

    @property
    def n_unseen(self) -> int:
        return len(self.unseen_tasks)

    def all_tasks(self) -> list[Task]:
        return [*self.seen_tasks, *self.unseen_tasks]

    def split_rows(
        self, train_fraction: float, rng: np.random.Generator
    ) -> tuple["TaskSuite", "TaskSuite"]:
        """Row-split into train/test suites with identical task partitions."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        n = self.table.n_rows
        permutation = rng.permutation(n)
        cut = max(1, min(n - 1, int(round(train_fraction * n))))
        train_rows, test_rows = permutation[:cut], permutation[cut:]
        ground_truth = {
            task.label_index: task.ground_truth_features
            for task in self.all_tasks()
            if task.ground_truth_features is not None
        }
        seen = [task.label_index for task in self.seen_tasks]
        unseen = [task.label_index for task in self.unseen_tasks]
        train = TaskSuite(
            f"{self.name}-train", self.table.select_rows(train_rows), seen, unseen,
            ground_truth=ground_truth,
        )
        test = TaskSuite(
            f"{self.name}-test", self.table.select_rows(test_rows), seen, unseen,
            ground_truth=ground_truth,
        )
        return train, test

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskSuite({self.name!r}, rows={self.table.n_rows}, "
            f"features={self.n_features}, seen={self.n_seen}, unseen={self.n_unseen})"
        )
