"""Environment state encoding.

The paper's state "marks the corresponding seen task, records the selected
features and the current scanning position" (Section II-B) and embeds the
task representation — the |Pearson| vector — directly into the state so one
Q-network serves all tasks.  The encoding used here is::

    [ task_repr (m) | selected mask (m) | scan scalars (9) ]

The scan scalars expose the decision-critical quantities directly instead
of a position one-hot:

* progress ``position / m``;
* |corr| of the feature under the cursor (0 at terminal);
* fraction of features selected so far;
* mean |corr| of the selected features;
* mean and max |corr| among the not-yet-scanned features (what is still
  available — lets the policy ration its budget);
* remaining budget fraction under ``max_feature_ratio``;
* percentile of the cursor feature's |corr| within this task's
  representation (absolute-corr thresholds do not transfer between tasks
  whose correlation scales differ; percentiles do);
* maximum |feature-feature corr| between the cursor feature and the
  already-selected set (the redundancy signal — lets the policy skip
  near-duplicates of features it already holds).

Sharing the select/deselect rule across scan positions (rather than giving
every position its own one-hot weights) is what lets a small MLP learn a
task-conditioned threshold policy from a few hundred episodes.  ``EnvState``
is the *logical* state (which features are selected, where the scan is)
used by the E-Tree to restore environments; ``encode_state`` maps it to the
network input.

There is one encoder, the incremental :class:`ScanEncoder`: the
environment, the lockstep greedy kernel (:mod:`repro.core.batch`) and
``encode_state`` itself all run on it, and an encoding is bit-identical
however it was reached (``tests/test_scan_encoder.py`` checks this against
a frozen copy of the original, non-incremental encoder).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_SCAN_SCALARS = 9

# Offsets of the scan scalars after ``[rep (m) | mask (m)]``.
_PROGRESS = 0  # position / m
_CURSOR = 1  # |corr| under the cursor
_FRAC_SELECTED = 2  # len(selected) / m
_MEAN_SELECTED = 3  # mean |corr| of the selected set
_MEAN_REMAINING = 4  # mean |corr| of rep[position:]
_MAX_REMAINING = 5  # max |corr| of rep[position:]
_BUDGET_LEFT = 6  # remaining budget fraction
_PERCENTILE = 7  # fraction of features with |corr| <= the cursor's
_REDUNDANCY = 8  # max feature-feature |corr|, cursor vs selected

# The scalars ``ScanEncoder.move`` writes, which depend on the row and the
# cursor position alone, in state order: the planes of the encoder's
# per-position table.
_MOVED = (_PROGRESS, _CURSOR, _MEAN_REMAINING, _MAX_REMAINING, _PERCENTILE, _REDUNDANCY)
_T_PROGRESS = _MOVED.index(_PROGRESS)
_T_CURSOR = _MOVED.index(_CURSOR)
_T_MEAN_REMAINING = _MOVED.index(_MEAN_REMAINING)
_T_MAX_REMAINING = _MOVED.index(_MAX_REMAINING)
_T_PERCENTILE = _MOVED.index(_PERCENTILE)
_T_REDUNDANCY = _MOVED.index(_REDUNDANCY)
# Their offsets among the scan scalars, as an index array.
_MOVED_SCALARS = np.array(_MOVED)


@dataclass(frozen=True)
class EnvState:
    """Logical environment state: an action-prefix snapshot.

    ``selected`` holds the indices chosen so far; ``position`` is the index
    of the feature currently being scanned (``position == n_features`` means
    terminal).  Hashable so E-Tree nodes and tests can key on it.
    """

    selected: tuple[int, ...]
    position: int

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.selected)))
        object.__setattr__(self, "selected", ordered)
        if self.position < 0:
            raise ValueError(f"position must be >= 0, got {self.position}")
        if any(i < 0 for i in ordered):
            raise ValueError("selected feature indices must be >= 0")
        if ordered and ordered[-1] >= self.position:
            raise ValueError(
                f"selected features must precede the scan position "
                f"(max selected {ordered[-1]}, position {self.position})"
            )

    @property
    def n_selected(self) -> int:
        return len(self.selected)


def state_dim(n_features: int) -> int:
    """Dimension of the encoded state vector for ``n_features`` features."""
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    return 2 * n_features + N_SCAN_SCALARS


def feature_count(dim: int) -> int:
    """The feature count whose encoded state has ``dim`` entries."""
    n_features, remainder = divmod(dim - N_SCAN_SCALARS, 2)
    if remainder or n_features < 1:
        raise ValueError(
            f"state dimension {dim} does not encode a feature-selection state"
        )
    return n_features


class ScanEncoder:
    """Encoded states of B scans over one feature space, kept incrementally.

    Row ``i`` of :attr:`states` is the Q-network input of the scan over
    ``representations[i]``; every row starts at ``EnvState((), 0)``.  Per
    task and cursor position, one ``(B, 6, m + 1)`` table holds the six
    scalars that depend on the cursor alone: progress, the cursor |corr|,
    the mean and max of the not-yet-scanned suffix, the cursor's
    percentile and the redundancy, with the terminal cursor last (progress
    1, the rest 0).  A step then costs one :meth:`move` (one write of a
    table entry) plus, for the rows that select, one :meth:`select`;
    :meth:`window` reads the scan scalars of a run of deselects off the
    same table.  Each entry is the exact operation ``encode_state`` always
    used, so the encodings are bit-identical:

    * a mean is ``np.add.reduce(x) / len(x)``, which is what ``np.mean``
      computes for float64 (the same pairwise sum, the same division);
      a 2-D ``add.reduce`` over the last axis runs that sum on each row,
      and the selected values are kept contiguous, in scan order.  Fewer
      than 8 values are summed left to right, and the unused slots after
      them hold -0.0, which leaves a sum as it is, so while every
      selecting row holds fewer than 8 features one ``add.reduce`` over
      the first 7 slots is each row's own sum;
    * max and comparison counts are exact in any order, so suffix maxima
      come from one reversed ``maximum.accumulate``, percentiles from one
      stable ``argsort`` per row (the count of values at most ``rep[p]``
      is one past the end of ``rep[p]``'s run of equal values in sorted
      order), and the redundancy from a running ``maximum`` over the
      selected features' correlation columns;
    * fractions, progress and the budget left are exact small-integer
      arithmetic, whether numpy or Python does it; the selected fraction
      and the budget left come from per-count tables.

    ``rows`` arguments are anything numpy indexes rows with: one row, an
    index array, or (for :meth:`move`) a slice.
    """

    def __init__(
        self,
        representations: np.ndarray,
        max_feature_ratio: float = 1.0,
        feature_corr: np.ndarray | None = None,
    ) -> None:
        reps = np.asarray(representations, dtype=np.float64)
        if reps.ndim != 2 or reps.shape[1] < 1:
            raise ValueError(
                f"representations must be a (B, m) matrix with m >= 1, "
                f"got shape {reps.shape}"
            )
        n_rows, m = reps.shape
        if feature_corr is not None:
            feature_corr = np.asarray(feature_corr, dtype=np.float64)
            if feature_corr.shape != (m, m):
                raise ValueError(
                    f"feature_corr must be ({m}, {m}), got {feature_corr.shape}"
                )
        self.n_features = m
        self.budget = max(1, int(np.floor(max_feature_ratio * m)))
        self._feature_corr = feature_corr
        #: Selected features per row.
        self.counts = np.zeros(n_rows, dtype=np.int64)
        # Each row's selected |corr| values, in scan order; -0.0 after them.
        self._chosen = np.full((n_rows, m), -0.0)
        # The selected fraction and the budget left, per selected count.
        selected = np.arange(m + 1)
        self._fractions = selected / m
        self._budget_left = np.maximum(0.0, (self.budget - selected) / self.budget)
        # Redundancy per row and cursor position p: the max of corr[p, k]
        # over the selected k.  ``_running`` folds in one column per select
        # from maximum's identity, -inf; the table's redundancy plane is
        # what the state shows: 0 until the first select, and at the
        # terminal cursor.
        self._running = np.full((n_rows, m), -np.inf)
        # One plane per scalar, so each is filled along contiguous rows.
        table = np.zeros((n_rows, len(_MOVED), m + 1))
        self._table = table
        table[:, _T_PROGRESS] = np.arange(m + 1) / m
        table[:, _T_CURSOR, :m] = reps
        table[:, _T_MAX_REMAINING, :m] = np.maximum.accumulate(
            reps[:, ::-1], axis=1
        )[:, ::-1]
        mean_remaining = table[:, _T_MEAN_REMAINING]
        for position in range(m):
            np.add.reduce(reps[:, position:], axis=1, out=mean_remaining[:, position])
        mean_remaining[:, :m] /= np.arange(m, 0, -1)
        table[:, _T_PERCENTILE, :m] = _percentiles(reps)
        #: State columns of the table's scalars.
        self._columns = 2 * m + _MOVED_SCALARS
        self.states = np.zeros((n_rows, state_dim(m)))
        self.states[:, :m] = reps
        self.states[:, 2 * m + _BUDGET_LEFT] = 1.0
        self.move(0, slice(None))

    def move(self, position: int, rows: "int | slice | np.ndarray") -> None:
        """Put the cursor of ``rows`` at ``position`` (``m`` = terminal)."""
        # An index array of rows must broadcast against the columns.
        target = rows[:, None] if isinstance(rows, np.ndarray) else rows
        self.states[target, self._columns] = self._table[rows, :, position]

    def window(
        self, rows: "slice | np.ndarray", position: int, width: int
    ) -> np.ndarray:
        """The scan scalars ``rows`` reach at ``position … position + width
        − 1`` by deselecting every feature in between, as one block.

        A deselect only moves the cursor, so the state at offset ``j`` is
        the row's current ``[rep | mask]`` and its current scan scalars
        with what :meth:`move` to ``position + j`` would write.  Returns
        the scalars alone, a ``(n · width, 9)`` array, row ``i · width +
        j`` for row ``i`` of ``rows`` at offset ``j``; the encoder's own
        states are left as they are.
        """
        current = self.states[rows, 2 * self.n_features :]
        n_rows = current.shape[0]
        block = np.repeat(current, width, axis=0).reshape(n_rows, width, -1)
        span = self._table[rows, :, position : position + width]
        block[:, :, _MOVED_SCALARS] = span.swapaxes(1, 2)
        return block.reshape(n_rows * width, N_SCAN_SCALARS)

    def select(self, rows: "int | np.ndarray", position: int) -> None:
        """``rows`` (one row or an index array), with the cursor at
        ``position``, select that feature.

        Call before moving the cursor on: the redundancy entry at the
        cursor is written by the next :meth:`move`.
        """
        m = self.n_features
        counts = self.counts[rows] + 1
        self.counts[rows] = counts
        self._chosen[rows, counts - 1] = self._table[rows, _T_CURSOR, position]
        self.states[rows, m + position] = 1.0
        self._write_selection(rows, counts)
        if self._feature_corr is not None:
            running = np.maximum(self._running[rows], self._feature_corr[:, position])
            self._running[rows] = running
            self._table[rows, _T_REDUNDANCY, :m] = running

    def reset(self, row: int, state: EnvState) -> None:
        """Encode the logical ``state`` into ``row`` from scratch."""
        m = self.n_features
        if state.position > m:
            raise ValueError(
                f"position {state.position} out of range for {m} features"
            )
        selected = np.asarray(state.selected, dtype=np.int64)
        count = len(selected)
        self.counts[row] = count
        self._chosen[row] = -0.0
        self._chosen[row, :count] = self._table[row, _T_CURSOR, selected]
        # The empty selection: fraction 0, mean 0, the whole budget left.
        self.states[row, m:] = 0.0
        self.states[row, 2 * m + _BUDGET_LEFT] = 1.0
        if count:
            self.states[row, m + selected] = 1.0
            self._write_selection(row, count)
        self._running[row] = -np.inf
        self._table[row, _T_REDUNDANCY] = 0.0
        if self._feature_corr is not None and count:
            self._running[row] = np.maximum.reduce(
                self._feature_corr[:, selected], axis=1
            )
            self._table[row, _T_REDUNDANCY, :m] = self._running[row]
        self.move(state.position, row)

    def _write_selection(
        self, rows: "int | np.ndarray", counts: "int | np.ndarray"
    ) -> None:
        """The selected fraction, mean |corr| and budget left of ``rows``,
        each holding at least one feature."""
        scalars = 2 * self.n_features
        states = self.states
        states[rows, scalars + _FRAC_SELECTED] = self._fractions[counts]
        states[rows, scalars + _BUDGET_LEFT] = self._budget_left[counts]
        if np.max(counts) < 8:
            states[rows, scalars + _MEAN_SELECTED] = (
                np.add.reduce(self._chosen[rows, :7], axis=-1) / counts
            )
            return
        for row, count in zip(
            np.reshape(rows, -1).tolist(), np.reshape(counts, -1).tolist()
        ):
            states[row, scalars + _MEAN_SELECTED] = (
                np.add.reduce(self._chosen[row, :count]) / count
            )


def _percentiles(reps: np.ndarray) -> np.ndarray:
    """``mean(rep <= rep[p])`` for every position ``p`` of every row.

    A count of the values at most ``rep[p]``, over m: in sorted order, one
    past the end of ``rep[p]``'s run of equal values (signed zeros are one
    run).  NaN sorts last, each NaN its own run, and is at most nothing.
    """
    n_rows, m = reps.shape
    order = np.argsort(reps, axis=1, kind="stable")
    rows = np.arange(n_rows)[:, None]
    ordered = reps[rows, order]
    run_ends = np.full((n_rows, m), m)
    run_ends[:, :-1] = np.where(ordered[:, 1:] != ordered[:, :-1], np.arange(1, m), m)
    counts = np.minimum.accumulate(run_ends[:, ::-1], axis=1)[:, ::-1]
    counts[np.isnan(ordered)] = 0
    plane = np.empty((n_rows, m))
    plane[rows, order] = counts / m
    return plane


def encode_state(
    task_representation: np.ndarray,
    state: EnvState,
    n_features: int,
    max_feature_ratio: float = 1.0,
    feature_corr: np.ndarray | None = None,
) -> np.ndarray:
    """Encode a logical state as the Q-network input vector.

    ``feature_corr`` is the optional m×m |Pearson| matrix between features;
    when provided, the redundancy scalar (max correlation of the cursor
    feature with the selected set) is populated, otherwise it stays 0.
    A one-off encode: stepping an episode goes through a
    :class:`ScanEncoder` kept across steps instead.
    """
    task_representation = np.asarray(task_representation, dtype=np.float64).reshape(-1)
    if task_representation.shape[0] != n_features:
        raise ValueError(
            f"task representation has {task_representation.shape[0]} entries "
            f"for {n_features} features"
        )
    encoder = ScanEncoder(
        task_representation[None, :], max_feature_ratio, feature_corr
    )
    encoder.reset(0, state)
    return encoder.states[0]
