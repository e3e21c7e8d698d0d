"""Configuration dataclasses for PA-FEAT.

Every knob of the reproduction is collected here as frozen dataclasses so
experiment specs are hashable, printable and comparable.  Defaults are
sized for the mini datasets used by tests; the experiment registry scales
them up for full runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class EnvConfig:
    """Feature-selection MDP parameters.

    Attributes:
        max_feature_ratio: ``mfr`` of Algorithm 1 — the episode truncates
            once more than this fraction of features is selected.
        reward_mode: ``"performance"`` gives each step the current subset's
            classifier score (the paper's Eqn. 2); ``"delta"`` gives the
            increment over the previous step's score, which leaves episode
            return equal to the final score and speeds credit assignment.
        reward_metric: metric the pretrained classifier is scored with
            (the paper uses AUC).
        size_penalty: subtracted from the subset score as
            ``size_penalty * |F| / m`` before rewards are computed.  The
            paper's reward relies on its classifier penalising bloated
            subsets implicitly; our mask-augmented classifier is robust to
            extra features by construction, so the pressure towards lean
            subsets ("higher-performing with as few features as possible",
            Section III-D) is reintroduced explicitly.  Set to 0 for the
            unshaped Eqn. 2 reward.
    """

    max_feature_ratio: float = 0.6
    reward_mode: str = "delta"
    reward_metric: str = "auc"
    size_penalty: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.max_feature_ratio <= 1.0:
            raise ValueError(
                f"max_feature_ratio must be in (0, 1], got {self.max_feature_ratio}"
            )
        if self.reward_mode not in ("performance", "delta"):
            raise ValueError(
                f"reward_mode must be 'performance' or 'delta', got {self.reward_mode!r}"
            )
        if self.reward_metric not in ("auc", "f1", "accuracy"):
            raise ValueError(
                f"reward_metric must be 'auc', 'f1' or 'accuracy', "
                f"got {self.reward_metric!r}"
            )
        if self.size_penalty < 0.0:
            raise ValueError(f"size_penalty must be >= 0, got {self.size_penalty}")


@dataclass(frozen=True)
class AgentConfig:
    """Dueling-DQN hyperparameters (paper Eqn. 1)."""

    hidden: tuple[int, ...] = (64,)
    gamma: float = 0.99
    lr: float = 5e-3
    batch_size: int = 32
    target_sync_every: int = 50
    epsilon_start: float = 1.0
    epsilon_end: float = 0.15
    epsilon_decay_steps: int = 3000
    grad_clip: float = 10.0
    replay_capacity: int = 20_000
    prioritized_replay: bool = False

    def __post_init__(self) -> None:
        if not self.hidden:
            raise ValueError("agent needs at least one hidden layer")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError(
                f"need 0 <= epsilon_end <= epsilon_start <= 1, got "
                f"[{self.epsilon_end}, {self.epsilon_start}]"
            )


@dataclass(frozen=True)
class ITSConfig:
    """Inter-Task Scheduler parameters (paper Section III-C)."""

    trajectory_window: int = 16
    temperature: float = 1.0
    min_trajectories: int = 4

    def __post_init__(self) -> None:
        if self.trajectory_window < 1:
            raise ValueError(
                f"trajectory_window must be >= 1, got {self.trajectory_window}"
            )
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.min_trajectories < 1:
            raise ValueError(
                f"min_trajectories must be >= 1, got {self.min_trajectories}"
            )


@dataclass(frozen=True)
class ITEConfig:
    """Intra-Task Explorer parameters (paper Section III-D, Eqn. 9)."""

    exploration_constant: float = 1.0
    size_penalty: float = 0.1
    invoke_probability: float = 0.5
    max_tree_nodes: int = 50_000
    use_policy_exploitation: bool = True

    def __post_init__(self) -> None:
        if self.exploration_constant <= 0.0:
            raise ValueError(
                f"exploration_constant must be positive, got {self.exploration_constant}"
            )
        if self.size_penalty < 0.0:
            raise ValueError(f"size_penalty must be >= 0, got {self.size_penalty}")
        if not 0.0 <= self.invoke_probability <= 1.0:
            raise ValueError(
                f"invoke_probability must be in [0, 1], got {self.invoke_probability}"
            )
        if self.max_tree_nodes < 1:
            raise ValueError(f"max_tree_nodes must be >= 1, got {self.max_tree_nodes}")


@dataclass(frozen=True)
class ClassifierConfig:
    """Pretrained masked-classifier (reward backend) parameters."""

    hidden: tuple[int, ...] = (32, 16)
    lr: float = 1e-2
    n_epochs: int = 25
    batch_size: int = 64
    mask_augment: float = 0.3

    def __post_init__(self) -> None:
        if not self.hidden:
            raise ValueError("classifier needs at least one hidden layer")
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs}")


@dataclass(frozen=True)
class PAFeatConfig:
    """Top-level PA-FEAT configuration.

    Attributes:
        n_iterations: outer training iterations (Algorithm 1's loop).
        episodes_per_iteration: rollout "resources" N per iteration.
        updates_per_iteration: Q-network minibatch updates K per iteration.
        use_its / use_ite: ablation switches for the two components.
        checkpoint_every: evaluate the greedy policy on all seen tasks every
            this many iterations and keep the best snapshot (restored after
            training).
        seed: master seed; all randomness derives from it.
    """

    n_iterations: int = 200
    episodes_per_iteration: int = 4
    updates_per_iteration: int = 4
    checkpoint_every: int = 10
    use_its: bool = True
    use_ite: bool = True
    seed: int = 0
    env: EnvConfig = field(default_factory=EnvConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    its: ITSConfig = field(default_factory=ITSConfig)
    ite: ITEConfig = field(default_factory=ITEConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if self.episodes_per_iteration < 1:
            raise ValueError(
                f"episodes_per_iteration must be >= 1, got {self.episodes_per_iteration}"
            )
        if self.updates_per_iteration < 0:
            raise ValueError(
                f"updates_per_iteration must be >= 0, got {self.updates_per_iteration}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
