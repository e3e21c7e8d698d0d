"""Experience-Tree (E-Tree) for the Intra-Task Explorer (paper Section III-D).

Because the action space is binary, every visited logical state corresponds
to a unique *action prefix* — so visited states organise naturally into a
binary prefix tree.  Each node stores visit counts and an accumulated value
(final-episode performance, discounted by a small subset-size penalty so
that "higher-performing with as few features as possible" trajectories rank
first).  UCT-style selection (Eqn. 9)::

    rho(F') = mu_hat(F') + sqrt(c_e * ln(T_F) / T_{F,F'})

descends from the root picking the child with the highest score until it
reaches a node with an unexplored branch or a leaf; that node's state is
returned as the customised initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import tsan
from repro.core.state import EnvState
from repro.rl.trajectory import Trajectory


@dataclass
class ETreeNode:
    """One visited state: its prefix, visit count and value accumulator."""

    state: EnvState
    visits: int = 0
    value_sum: float = 0.0
    children: dict[int, "ETreeNode"] = field(default_factory=dict)

    @property
    def mean_value(self) -> float:
        return self.value_sum / self.visits if self.visits else 0.0

    def child(self, action: int) -> "ETreeNode | None":
        return self.children.get(action)

    def is_leaf(self) -> bool:
        return not self.children

    def uct_score(self, parent_visits: int, exploration_constant: float) -> float:
        """Eqn. 9: value estimate plus the UCT exploration bonus."""
        if self.visits == 0:
            return float("inf")
        bonus = math.sqrt(
            exploration_constant * math.log(max(parent_visits, 1)) / self.visits
        )
        return self.mean_value + bonus


class ETree:
    """Prefix tree over visited feature-selection states for one task."""

    def __init__(
        self,
        n_features: int,
        exploration_constant: float = 1.0,
        size_penalty: float = 0.1,
        max_nodes: int = 50_000,
    ) -> None:
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if exploration_constant <= 0.0:
            raise ValueError(
                f"exploration_constant must be positive, got {exploration_constant}"
            )
        if size_penalty < 0.0:
            raise ValueError(f"size_penalty must be >= 0, got {size_penalty}")
        if max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
        self.n_features = n_features
        self.exploration_constant = exploration_constant
        self.size_penalty = size_penalty
        self.max_nodes = max_nodes
        self.root = ETreeNode(EnvState(selected=(), position=0))
        self.n_nodes = 1

    def trajectory_value(self, trajectory: Trajectory) -> float:
        """Node credit for a trajectory: final score minus a size penalty."""
        size_fraction = len(trajectory.selected_features) / self.n_features
        return trajectory.final_reward - self.size_penalty * size_fraction

    def add_trajectory(self, trajectory: Trajectory, start: EnvState | None = None) -> None:
        """Extend the tree along a trajectory's action sequence.

        ``start`` is the state the episode was launched from (the default
        initial state, or an ITE-customised one); credit propagates to every
        node on the path, including nodes of the existing prefix.
        """
        # Mutation must happen under the caller's E-Tree barrier (the ITE
        # record lock) — the note lets the runtime sanitizer replay the
        # held-lock set and flag any unguarded concurrent update.
        tsan.note(self, "root", write=True)
        value = self.trajectory_value(trajectory)
        node = self._descend_to(start) if start is not None else self.root
        node.visits += 1
        node.value_sum += value
        for action in trajectory.actions.tolist():
            child = node.children.get(action)
            if child is None:
                if self.n_nodes >= self.max_nodes:
                    break
                selected = (
                    node.state.selected + (node.state.position,)
                    if action == 1
                    else node.state.selected
                )
                child = ETreeNode(
                    EnvState(selected=selected, position=node.state.position + 1)
                )
                node.children[action] = child
                self.n_nodes += 1
            child.visits += 1
            child.value_sum += value
            node = child

    def _descend_to(self, start: EnvState) -> ETreeNode:
        """Walk/extend the prefix path for ``start`` and return its node."""
        node = self.root
        selected = set(start.selected)
        for position in range(start.position):
            action = 1 if position in selected else 0
            child = node.children.get(action)
            if child is None:
                child = ETreeNode(
                    EnvState(
                        selected=node.state.selected + ((position,) if action else ()),
                        position=position + 1,
                    )
                )
                node.children[action] = child
                self.n_nodes += 1
            node = child
        return node

    def select_state(self, rng: np.random.Generator) -> EnvState:
        """Return the most exploration-worthy visited state (Eqn. 9).

        Descends by UCT until reaching a node that is a leaf or has an
        untried branch (a natural frontier for further exploration).
        Unvisited children score infinity, so frontiers are preferred.
        """
        node = self.root
        while not node.is_leaf():
            # A node whose scanned feature still has an untaken branch is a
            # frontier: exploring from here can reach genuinely new states.
            if len(node.children) < 2 and node.state.position < self.n_features:
                break
            # Actions are binary (take/skip the scanned feature), so the
            # UCT argmax is a direct comparison over at most two children —
            # no per-level dict/list construction on this hot descent loop.
            items = iter(node.children.items())
            action, child = next(items)
            best_score = child.uct_score(node.visits, self.exploration_constant)
            for other_action, other_child in items:
                other_score = other_child.uct_score(
                    node.visits, self.exploration_constant
                )
                if other_score > best_score:
                    action, best_score = other_action, other_score
                elif other_score == best_score:
                    # Tie: draw between the two, first-inserted first, which
                    # matches the previous dict-comprehension tie-breaking.
                    action = int(rng.choice((action, other_action)))
            node = node.children[action]
        return node.state

    # ------------------------------------------------------------------
    # Durable checkpointing
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Flatten the tree into parallel arrays (BFS order).

        Node states are not stored: a child's :class:`EnvState` is fully
        determined by its parent's state and the edge action, exactly as
        :meth:`add_trajectory` builds it.  BFS enumerates each node's
        children in insertion order, so :meth:`restore_state` reproduces
        the ``children`` dict ordering — which matters because UCT
        tie-breaking iterates that dict.
        """
        parents: list[int] = [-1]
        actions: list[int] = [-1]
        visits: list[int] = [self.root.visits]
        value_sums: list[float] = [self.root.value_sum]
        queue: list[tuple[int, ETreeNode]] = [(0, self.root)]
        cursor = 0
        while cursor < len(queue):
            index, node = queue[cursor]
            cursor += 1
            for action, child in node.children.items():
                child_index = len(parents)
                parents.append(index)
                actions.append(action)
                visits.append(child.visits)
                value_sums.append(child.value_sum)
                queue.append((child_index, child))
        arrays = {
            "parents": np.array(parents, dtype=np.int64),
            "actions": np.array(actions, dtype=np.int64),
            "visits": np.array(visits, dtype=np.int64),
            "value_sums": np.array(value_sums, dtype=np.float64),
        }
        return {"n_nodes": self.n_nodes}, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Rebuild the tree from :meth:`capture_state` arrays."""
        parents = arrays["parents"]
        actions = arrays["actions"]
        visits = arrays["visits"]
        value_sums = arrays["value_sums"]
        self.root = ETreeNode(
            EnvState(selected=(), position=0),
            visits=int(visits[0]),
            value_sum=float(value_sums[0]),
        )
        nodes = [self.root]
        for i in range(1, len(parents)):
            parent = nodes[int(parents[i])]
            action = int(actions[i])
            selected = (
                parent.state.selected + (parent.state.position,)
                if action == 1
                else parent.state.selected
            )
            child = ETreeNode(
                EnvState(selected=selected, position=parent.state.position + 1),
                visits=int(visits[i]),
                value_sum=float(value_sums[i]),
            )
            parent.children[action] = child
            nodes.append(child)
        self.n_nodes = len(nodes)
        if self.n_nodes != int(meta.get("n_nodes", self.n_nodes)):
            raise ValueError(
                f"E-Tree snapshot inconsistent: {self.n_nodes} nodes decoded, "
                f"meta says {meta.get('n_nodes')}"
            )

    def best_terminal_subset(self) -> tuple[tuple[int, ...], float] | None:
        """Best-valued deepest path (diagnostics): (subset, mean value)."""
        best: tuple[tuple[int, ...], float] | None = None
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf() and node.visits:
                candidate = (node.state.selected, node.mean_value)
                if best is None or candidate[1] > best[1]:
                    best = candidate
            stack.extend(node.children.values())
        return best
