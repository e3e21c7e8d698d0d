"""Task suites as CSV: the flat-table exchange format.

:func:`save_suite_csv` writes a :class:`~repro.data.tasks.TaskSuite` as
``data.csv`` (feature columns, then label columns) plus a ``suite.json``
sidecar with the seen/unseen partition and any ground truth;
:func:`load_suite_csv` reads it back, validating every row, so real
tabular exports can be dropped into the pipeline beside ARFF files
(:func:`repro.data.arff.load_arff_suite`).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from repro.errors import DataValidationError

from repro.data.table import StructuredTable
from repro.data.tasks import TaskSuite


def save_suite_csv(suite: TaskSuite, directory: str | Path) -> Path:
    """Write a suite as ``data.csv`` + ``suite.json`` (task partition)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table = suite.table
    with open(directory / "data.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.feature_names + table.label_names)
        for i in range(table.n_rows):
            writer.writerow(
                [f"{v:.10g}" for v in table.features[i]]
                + [int(v) for v in table.labels[i]]
            )
    sidecar = {
        "name": suite.name,
        "n_features": table.n_features,
        "seen": [task.label_index for task in suite.seen_tasks],
        "unseen": [task.label_index for task in suite.unseen_tasks],
        "ground_truth": {
            str(task.label_index): list(task.ground_truth_features)
            for task in suite.all_tasks()
            if task.ground_truth_features is not None
        },
    }
    (directory / "suite.json").write_text(json.dumps(sidecar, indent=2))
    return directory


def _first_non_numeric_row(rows: list[list[str]], n_features: int) -> int:
    """Line number (1-based, header included) of the first unparsable row."""
    for line_number, row in enumerate(rows, start=2):
        try:
            [float(v) for v in row[:n_features]]
            [int(v) for v in row[n_features:]]
        except ValueError:
            return line_number
    return 2


def load_suite_csv(directory: str | Path) -> TaskSuite:
    """Load a suite written by :func:`save_suite_csv`."""
    directory = Path(directory)
    sidecar = json.loads((directory / "suite.json").read_text())
    n_features = int(sidecar["n_features"])

    with open(directory / "data.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    if len(header) <= n_features:
        raise DataValidationError(
            f"CSV has {len(header)} columns but the sidecar declares "
            f"{n_features} features plus at least one label"
        )
    # Validate per-row shape up front: ragged or truncated exports must be
    # reported by row, not surface later as an opaque IndexError/float()
    # failure.  Data rows start at line 2 (line 1 is the header).
    for line_number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataValidationError(
                f"data.csv row at line {line_number} has {len(row)} columns, "
                f"expected {len(header)} (ragged or truncated file?)"
            )
    try:
        features = np.array(
            [[float(v) for v in row[:n_features]] for row in rows], dtype=np.float64
        )
        labels = np.array(
            [[int(v) for v in row[n_features:]] for row in rows], dtype=np.int64
        )
    except ValueError as exc:
        offending = _first_non_numeric_row(rows, n_features)
        raise DataValidationError(
            f"data.csv row at line {offending} contains a non-numeric value: {exc}"
        ) from exc
    table = StructuredTable(
        features,
        labels,
        feature_names=header[:n_features],
        label_names=header[n_features:],
    )
    ground_truth = {
        int(key): tuple(values)
        for key, values in sidecar.get("ground_truth", {}).items()
    }
    return TaskSuite(
        sidecar["name"],
        table,
        seen_label_indices=sidecar["seen"],
        unseen_label_indices=sidecar["unseen"],
        ground_truth=ground_truth,
    )
