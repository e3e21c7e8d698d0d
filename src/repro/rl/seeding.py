"""Sanctioned seeded-stream derivation.

Baselines that train from scratch per task need a fresh-but-reproducible
RNG per ``(seed, task)`` pair.  Building ``np.random.SeedSequence`` inline
at each call site scatters the seeding policy across the codebase and is
exactly the pattern the ``RNG103`` repolint rule bans; this module is the
one sanctioned place such sequences are minted, so "one seed reproduces
the whole run" stays a property you can check mechanically.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "derive_seed",
    "spawn_generators",
    "task_rng",
    "task_seed_sequence",
]


def task_seed_sequence(seed: int, *components: int) -> np.random.SeedSequence:
    """Deterministic :class:`~numpy.random.SeedSequence` for a keyed stream.

    ``components`` identify the consumer — typically a task's
    ``label_index`` — so different tasks get independent streams while the
    same ``(seed, components)`` pair always reproduces the same one.
    """
    return np.random.SeedSequence([int(seed), *[int(c) for c in components]])


def task_rng(seed: int, *components: int) -> np.random.Generator:
    """A fresh :class:`~numpy.random.Generator` for a keyed stream."""
    return np.random.default_rng(task_seed_sequence(seed, *components))


def spawn_generators(
    sequence: np.random.SeedSequence, n: int
) -> list[np.random.Generator]:
    """``n`` independent generators spawned from one sequence, in order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [np.random.default_rng(child) for child in sequence.spawn(n)]


def derive_seed(sequence: np.random.SeedSequence) -> int:
    """A single 32-bit integer seed drawn from a spawned child stream.

    For components that take an ``int`` seed (e.g. classifier constructors)
    rather than a generator; consumes one spawn so successive calls on the
    same sequence yield independent seeds.
    """
    return int(sequence.spawn(1)[0].generate_state(1)[0])
