"""Reinforcement-learning substrate: replay, schedules and the DQN agent.

Task-agnostic pieces live here; everything specific to feature selection
(the environment, the multi-task trainer, ITS, ITE) lives in
:mod:`repro.core`.
"""

from repro.rl.agent import DuelingDQNAgent
from repro.rl.replay import ReplayBatch, ReplayBuffer, ReplayRegistry
from repro.rl.reward import RewardFunction, build_task_rewards
from repro.rl.schedules import ConstantSchedule, LinearDecay
from repro.rl.seeding import task_rng, task_seed_sequence
from repro.rl.trajectory import EpisodeSummary, Trajectory

__all__ = [
    "ConstantSchedule",
    "DuelingDQNAgent",
    "EpisodeSummary",
    "LinearDecay",
    "ReplayBatch",
    "ReplayBuffer",
    "ReplayRegistry",
    "RewardFunction",
    "Trajectory",
    "build_task_rewards",
    "task_rng",
    "task_seed_sequence",
]
