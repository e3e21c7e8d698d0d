"""Exploration-rate schedules for epsilon-greedy action selection."""

from __future__ import annotations


class Schedule:
    """Maps a step counter to a value (e.g. epsilon)."""

    def value(self, step: int) -> float:
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        return self.value(step)


class ConstantSchedule(Schedule):
    """Always returns the same value."""

    def __init__(self, constant: float) -> None:
        self.constant = constant

    def value(self, step: int) -> float:
        return self.constant


class LinearDecay(Schedule):
    """Linearly anneal from ``start`` to ``end`` over ``decay_steps``."""

    def __init__(self, start: float, end: float, decay_steps: int) -> None:
        if decay_steps < 1:
            raise ValueError(f"decay_steps must be >= 1, got {decay_steps}")
        self.start = start
        self.end = end
        self.decay_steps = decay_steps

    def value(self, step: int) -> float:
        fraction = min(1.0, step / self.decay_steps)
        return self.start + fraction * (self.end - self.start)
