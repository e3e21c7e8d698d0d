"""Reward function with subset-level memoization (paper Eqn. 2).

``r = P(CLS(X^{F'}), Y)`` — the score of the pretrained classifier on the
masked feature view.  During RL training the same subsets recur constantly
(especially early, when episodes are short), so scores are cached keyed by
the frozen subset.  The cache is bounded LRU to keep memory flat on long
runs; hit statistics are exposed for the cache-ablation benchmark.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from repro.analysis import tsan
from repro.analysis.contracts import check_scalar_range
from repro.eval.metrics import binary_labels
from repro.nn.classifier import MaskedMLPClassifier, pretrain


def build_task_rewards(
    features: np.ndarray,
    labels: Sequence[np.ndarray],
    classifiers: Sequence[MaskedMLPClassifier],
    seeds: Sequence[int],
    metric: str = "auc",
    validation_fraction: float = 0.3,
) -> list["RewardFunction"]:
    """Pretrain one classifier per task and wrap each as a validation-scored reward.

    Task ``k`` labels the rows of the shared ``features`` table with
    ``labels[k]``; ``seeds[k]`` draws its row split.  Each classifier is
    fit on a train portion of its task's rows and its reward evaluates
    subsets on the held-out remainder.  Scoring on the training rows
    themselves produces a degenerate landscape — an overfit classifier
    scores ~1.0 for almost any subset — so validation scoring is what makes
    Eqn. 2 informative about subset quality.  The classifiers pretrain in
    lockstep (:func:`repro.nn.classifier.pretrain`), each exactly as it
    would alone.  Non-binary labels raise
    :class:`~repro.errors.DataValidationError` before any pretraining.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = [binary_labels(task_labels, "labels") for task_labels in labels]
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError(
            f"validation_fraction must be in (0, 1), got {validation_fraction}"
        )
    n = features.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 rows to split for reward, got {n}")
    n_val = max(1, min(n - 1, int(round(validation_fraction * n))))
    splits = []
    for seed in seeds:
        permutation = np.random.default_rng(seed).permutation(n)
        splits.append((permutation[:n_val], permutation[n_val:]))
    pretrain(
        classifiers,
        features,
        [fit_rows for _, fit_rows in splits],
        [task_labels[fit_rows] for task_labels, (_, fit_rows) in zip(labels, splits)],
    )
    return [
        RewardFunction(
            classifier, features[val_rows], task_labels[val_rows], metric=metric
        )
        for classifier, task_labels, (val_rows, _) in zip(classifiers, labels, splits)
    ]


class RewardFunction:
    """Callable mapping a feature subset to a scalar reward in [0, 1]."""

    def __init__(
        self,
        classifier: MaskedMLPClassifier,
        features: np.ndarray,
        labels: np.ndarray,
        metric: str = "auc",
        cache_size: int = 50_000,
        empty_subset_reward: float = 0.0,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self._classifier = classifier
        self._features = np.asarray(features, dtype=np.float64)
        self._labels = np.asarray(labels).reshape(-1)
        self.metric = metric
        self.cache_size = cache_size
        self.empty_subset_reward = empty_subset_reward
        self._cache: OrderedDict[tuple[int, ...], float] = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Guards the LRU cache: lookups reorder and inserts evict, so every
        # cache access holds this lock.  TrackedLock feeds the runtime
        # sanitizer's held-lock sets, so REPRO_TSAN=1 runs check the guard.
        self._lock = tsan.TrackedLock("reward.cache")

    @property
    def all_features_score(self) -> float:
        """Score with every feature selected — the P_all baseline (Eqn. 6)."""
        return self(range(self._features.shape[1]))

    def __call__(self, subset: Iterable[int]) -> float:
        key = tuple(sorted(set(int(i) for i in subset)))
        if not key:
            return self.empty_subset_reward
        if self.cache_size > 0:
            with self._lock:
                tsan.note(self, "_cache")
                if key in self._cache:
                    self.hits += 1
                    self._cache.move_to_end(key)
                    return self._cache[key]
        self.misses += 1
        # The classifier evaluation stays outside the lock: it is the
        # expensive part and touches no cache state, so concurrent misses
        # may score in parallel and serialize only on insertion.
        score = self._classifier.score(
            self._features, self._labels, subset=key, metric=self.metric
        )
        check_scalar_range("reward", score, 0.0, 1.0)
        if self.cache_size > 0:
            with self._lock:
                tsan.note(self, "_cache", write=True)
                self._cache[key] = score
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return score

    def hit_rate(self) -> float:
        """Fraction of calls served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int]:
        """Cache counters for telemetry: hits, misses, occupancy."""
        with self._lock:
            return {
                "hits": int(self.hits),
                "misses": int(self.misses),
                "entries": len(self._cache),
            }

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0
