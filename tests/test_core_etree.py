"""Tests for the Experience-Tree (E-Tree) and UCT selection."""

import pytest

from repro.core.etree import ETree, ETreeNode
from repro.core.state import EnvState
from tests.conftest import make_episode


class TestETreeNode:
    def test_mean_value(self):
        node = ETreeNode(EnvState((), 0), visits=4, value_sum=2.0)
        assert node.mean_value == 0.5

    def test_unvisited_scores_infinity(self):
        node = ETreeNode(EnvState((), 0))
        assert node.uct_score(10, 1.0) == float("inf")

    def test_uct_bonus_shrinks_with_visits(self):
        few = ETreeNode(EnvState((), 0), visits=2, value_sum=1.0)
        many = ETreeNode(EnvState((), 0), visits=200, value_sum=100.0)
        assert few.uct_score(1000, 1.0) > many.uct_score(1000, 1.0)


class TestETreeConstruction:
    def test_add_trajectory_grows_prefix_path(self):
        tree = ETree(n_features=4)
        tree.add_trajectory(make_episode([1, 0, 1, 0]))
        assert tree.n_nodes == 5  # root + one node per action

    def test_shared_prefix_not_duplicated(self):
        tree = ETree(n_features=4)
        tree.add_trajectory(make_episode([1, 0, 1, 0]))
        tree.add_trajectory(make_episode([1, 0, 0, 0]))
        # Shared prefix of length 2, then the paths diverge for 2 steps.
        assert tree.n_nodes == 5 + 2

    def test_visits_accumulate_along_path(self):
        tree = ETree(n_features=3)
        tree.add_trajectory(make_episode([1, 1, 1]))
        tree.add_trajectory(make_episode([1, 1, 1]))
        node = tree.root
        while not node.is_leaf():
            node = node.children[1]
            assert node.visits == 2

    def test_value_includes_size_penalty(self):
        tree = ETree(n_features=4, size_penalty=0.4)
        trajectory = make_episode([1, 1, 0, 0], final_reward=0.8)
        assert tree.trajectory_value(trajectory) == pytest.approx(0.8 - 0.4 * 2 / 4)

    def test_node_cap_respected(self):
        tree = ETree(n_features=8, max_nodes=3)
        tree.add_trajectory(make_episode([1] * 8))
        assert tree.n_nodes == 3

    def test_states_track_selected_prefix(self):
        tree = ETree(n_features=3)
        tree.add_trajectory(make_episode([1, 0, 1]))
        node = tree.root.children[1]
        assert node.state == EnvState(selected=(0,), position=1)
        node = node.children[0]
        assert node.state == EnvState(selected=(0,), position=2)

    def test_add_from_custom_start_extends_prefix(self):
        tree = ETree(n_features=4)
        start = EnvState(selected=(0,), position=2)
        trajectory = make_episode([1, 0])  # actions at positions 2, 3
        tree.add_trajectory(trajectory, start=start)
        # Prefix path for the start state (2 nodes) exists.
        assert tree.root.children[1].children[0].state == start

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            ETree(0)
        with pytest.raises(ValueError):
            ETree(4, exploration_constant=0.0)
        with pytest.raises(ValueError):
            ETree(4, size_penalty=-1.0)


class TestUCTSelection:
    def test_empty_tree_returns_root_state(self, rng):
        tree = ETree(n_features=4)
        assert tree.select_state(rng) == EnvState((), 0)

    def test_selection_prefers_high_value_branch(self, rng):
        tree = ETree(n_features=2, exploration_constant=0.01)
        for _ in range(20):
            tree.add_trajectory(make_episode([1, 0], final_reward=0.9))
            tree.add_trajectory(make_episode([0, 0], final_reward=0.1))
        state = tree.select_state(rng)
        # The good branch starts by selecting feature 0.
        assert 0 in state.selected or state == EnvState((), 0)

    def test_selection_stops_at_frontier(self, rng):
        """A node with an untried branch is a valid restart frontier."""
        tree = ETree(n_features=4)
        tree.add_trajectory(make_episode([1, 1, 1, 1], final_reward=0.9))
        state = tree.select_state(rng)
        # Only one path exists, every node has an untaken branch: selection
        # should stop at a prefix of that path, not run past the tree.
        assert state.position <= 4

    def test_returned_state_is_restorable(self, rng):
        tree = ETree(n_features=5)
        for actions in ([1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [1, 1, 0, 0, 1]):
            tree.add_trajectory(make_episode(actions, final_reward=0.5))
        state = tree.select_state(rng)
        assert all(f < state.position for f in state.selected)


class TestBestTerminalSubset:
    def test_best_leaf_found(self):
        tree = ETree(n_features=2, size_penalty=0.0)
        tree.add_trajectory(make_episode([1, 0], final_reward=0.9))
        tree.add_trajectory(make_episode([0, 1], final_reward=0.2))
        subset, value = tree.best_terminal_subset()
        assert subset == (0,)
        assert value == pytest.approx(0.9)

    def test_empty_tree_returns_root_as_leaf(self):
        tree = ETree(n_features=2)
        assert tree.best_terminal_subset() is None or tree.best_terminal_subset()[0] == ()
