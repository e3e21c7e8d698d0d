"""Dueling DQN agent (paper Section II-A, Eqn. 1).

One agent instance is the paper's *global agent*; "local agents" are
realised as greedy/epsilon-greedy action queries against a snapshot of the
online network (the paper synchronises network weights to each rollout
worker — in a single-process reproduction the snapshot is the online net
itself, which is mathematically identical because rollouts and updates
interleave rather than race).

The update rule is Eqn. 1: Huber TD loss against a periodically-synced
frozen target network, minimised with Adam.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.contracts import check_finite, check_state_batch
from repro.io.checkpoint import nest, rng_state, set_rng_state, unnest
from repro.nn.dueling import DuelingNetwork
from repro.nn.losses import HuberLoss
from repro.nn.network import load_state_dict, state_dict
from repro.nn.optim import Adam
from repro.rl.replay import ReplayBatch
from repro.rl.schedules import Schedule


class DuelingDQNAgent:
    """Dueling DQN with target network, epsilon-greedy policy and Adam."""

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        hidden: Sequence[int],
        gamma: float,
        lr: float,
        epsilon_schedule: Schedule,
        target_sync_every: int,
        rng: np.random.Generator,
        grad_clip: float = 10.0,
    ) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if target_sync_every < 1:
            raise ValueError(f"target_sync_every must be >= 1, got {target_sync_every}")
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.gamma = gamma
        self.epsilon_schedule = epsilon_schedule
        self.target_sync_every = target_sync_every
        self.grad_clip = grad_clip
        self._rng = rng
        self.online = DuelingNetwork(state_dim, n_actions, hidden, rng)
        self.target = DuelingNetwork(state_dim, n_actions, hidden, rng)
        self.sync_target()
        self._optimizer = Adam(self.online.parameters(), lr=lr)
        self._loss = HuberLoss()
        self.update_count = 0
        self.action_count = 0

    def q_values(self, states: np.ndarray) -> np.ndarray:
        """Online-network Q(s, ·) for a batch (or single) state."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        check_state_batch("agent.q_values", states, self.state_dim)
        return self.online.infer(states)

    def act(self, state: np.ndarray) -> int:
        """Epsilon-greedy action for one state: the training rollout policy.

        Advances the action counter (the epsilon schedule's clock) and
        draws from the exploration RNG; greedy actions come from
        :meth:`act_batch`.
        """
        self.action_count += 1
        epsilon = self.epsilon_schedule(self.action_count)
        if self._rng.random() < epsilon:
            return int(self._rng.integers(self.n_actions))
        q = self.q_values(state)[0]
        # Break exact ties randomly so early (all-zero-Q) policies explore.
        best = np.flatnonzero(q == q.max())
        if len(best) == 1:
            return int(best[0])
        return int(self._rng.choice(best))

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        """Greedy actions for a batch of states in one forward pass.

        The one greedy rule: every greedy episode (``PAFeat.select``,
        serving, training-time scoring, explanations) runs the lockstep
        kernel of :mod:`repro.core.batch`, which calls this once per round
        with one forward over the active episodes' states at the round's
        positions.  Deliberately
        side-effect free — it neither advances the epsilon schedule's
        action counter nor draws from the exploration RNG, so inference
        traffic cannot perturb training state.  Exact Q ties break to the
        lowest action index (``argmax``).
        """
        q = self.q_values(states)
        return np.asarray(q.argmax(axis=1), dtype=np.int64)

    def update(self, batch: ReplayBatch, task_id: int | None = None) -> float:
        """One Dueling-DQN step on a replay minibatch; returns the loss.

        ``task_id`` identifies which task's buffer the batch came from and
        is passed on to :meth:`compute_targets`.
        """
        if not len(batch):
            raise ValueError("update requires a non-empty batch")
        targets_for_actions = self.compute_targets(batch, task_id)

        q_all = self.online.forward(batch.states)
        # Only the taken action's Q contributes to the loss; build a full
        # target matrix equal to the prediction elsewhere so its gradient
        # vanishes on untaken actions.
        targets = q_all.copy()
        targets[np.arange(len(batch)), batch.actions] = targets_for_actions

        loss_value = self._loss.forward(q_all, targets)
        self._optimizer.zero_grad()
        self.online.backward(self._loss.backward())
        if self.grad_clip > 0:
            self._optimizer.clip_grad_norm(self.grad_clip)
        self._optimizer.step()

        self.update_count += 1
        if self.update_count % self.target_sync_every == 0:
            self.sync_target()
        return loss_value

    def compute_targets(
        self, batch: ReplayBatch, task_id: int | None = None
    ) -> np.ndarray:
        """TD targets for the taken actions of a batch.

        Targets use Double DQN bootstrapping (the online network picks the
        next action, the target network scores it), then are tightened
        from below by each step's observed return-to-go (the R̂ Algorithm 1
        stores in the buffer), which lower-bounds the optimal Q in this
        deterministic MDP.  The base agent ignores ``task_id``; multi-task
        reward-rescaling variants (the PopArt baseline) key their running
        statistics on it.
        """
        del task_id  # hook for subclasses
        if not len(batch):
            raise ValueError("compute_targets requires a non-empty batch")
        next_q_target = self.target.infer(batch.next_states)
        best_actions = self.online.infer(batch.next_states).argmax(axis=1)
        bootstrap = next_q_target[np.arange(len(batch)), best_actions]
        targets = batch.rewards + np.where(batch.dones, 0.0, self.gamma * bootstrap)

        check_state_batch("agent.compute_targets", batch.states, self.state_dim)
        tightened = np.maximum(targets, batch.returns)
        check_finite("agent.compute_targets", tightened)
        return tightened

    def td_errors(self, batch: ReplayBatch) -> np.ndarray:
        """Per-sample |target − Q(s, a)| — priorities for prioritized replay."""
        targets = self.compute_targets(batch)
        q_all = self.online.infer(batch.states)
        predictions = q_all[np.arange(len(batch)), batch.actions]
        return np.abs(targets - predictions)

    def sync_target(self) -> None:
        """Copy online weights into the frozen target network."""
        snapshot = {
            name: value for name, value in state_dict(self.online).items()
        }
        target_params = {p.name: p for p in self.target.parameters()}
        for name, parameter in target_params.items():
            parameter.value[...] = snapshot[name]

    def save_policy(self) -> dict[str, np.ndarray]:
        """Snapshot the online network (for checkpointing/transfer)."""
        return state_dict(self.online)

    def load_policy(self, snapshot: dict[str, np.ndarray]) -> None:
        """Restore the online network and resync the target."""
        load_state_dict(self.online, snapshot)
        self.sync_target()

    # ------------------------------------------------------------------
    # Durable checkpointing
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Complete learning state as ``(json_meta, arrays)``.

        Unlike :meth:`save_policy` (inference weights only), this covers
        everything needed to *continue training* bit-identically: online
        and target networks, Adam moments, step counters (which drive the
        epsilon schedule and target syncs) and the exploration RNG stream.
        """
        optim_meta, optim_arrays = self._optimizer.capture_state()
        arrays = (
            nest("online/", state_dict(self.online))
            | nest("target/", state_dict(self.target))
            | nest("optim/", optim_arrays)
        )
        meta = {
            "update_count": self.update_count,
            "action_count": self.action_count,
            "optimizer": optim_meta,
            "rng": rng_state(self._rng),
        }
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Restore a snapshot captured by :meth:`capture_state`."""
        load_state_dict(self.online, unnest("online/", arrays))
        load_state_dict(self.target, unnest("target/", arrays))
        self._optimizer.restore_state(meta["optimizer"], unnest("optim/", arrays))
        self.update_count = int(meta["update_count"])
        self.action_count = int(meta["action_count"])
        set_rng_state(self._rng, meta["rng"])
