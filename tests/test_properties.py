"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.numerics import normalized
from repro.core.etree import ETree
from repro.core.state import EnvState, encode_state, state_dim
from repro.data.synthetic import SyntheticSpec, generate_suite
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.replay import ReplayBuffer
from tests.conftest import make_episode


# ---------------------------------------------------------------------------
# E-Tree invariants
# ---------------------------------------------------------------------------

action_lists = st.lists(st.integers(0, 1), min_size=1, max_size=8)


class TestETreeProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        episodes=st.lists(
            st.tuples(action_lists, st.floats(0.0, 1.0)), min_size=1, max_size=10
        )
    )
    def test_parent_visits_at_least_child_visits(self, episodes):
        tree = ETree(n_features=8)
        for actions, reward in episodes:
            tree.add_trajectory(make_episode(actions, final_reward=reward))
        stack = [tree.root]
        while stack:
            node = stack.pop()
            child_total = sum(child.visits for child in node.children.values())
            assert node.visits >= child_total - len(episodes)
            for child in node.children.values():
                assert node.visits >= child.visits
                stack.append(child)

    @settings(max_examples=40, deadline=None)
    @given(
        episodes=st.lists(
            st.tuples(action_lists, st.floats(0.0, 1.0)), min_size=1, max_size=10
        )
    )
    def test_states_consistent_with_action_prefix(self, episodes):
        tree = ETree(n_features=8)
        for actions, reward in episodes:
            tree.add_trajectory(make_episode(actions, final_reward=reward))
        stack = [(tree.root, [])]
        while stack:
            node, prefix = stack.pop()
            expected_selected = tuple(
                i for i, action in enumerate(prefix) if action == 1
            )
            assert node.state.selected == expected_selected
            assert node.state.position == len(prefix)
            for action, child in node.children.items():
                stack.append((child, prefix + [action]))

    @settings(max_examples=30, deadline=None)
    @given(
        episodes=st.lists(
            st.tuples(action_lists, st.floats(0.0, 1.0)), min_size=1, max_size=8
        ),
        seed=st.integers(0, 100),
    )
    def test_selected_state_always_valid(self, episodes, seed):
        tree = ETree(n_features=8)
        for actions, reward in episodes:
            tree.add_trajectory(make_episode(actions, final_reward=reward))
        state = tree.select_state(np.random.default_rng(seed))
        assert 0 <= state.position <= 8
        assert all(f < state.position for f in state.selected)


# ---------------------------------------------------------------------------
# State encoding invariants
# ---------------------------------------------------------------------------


class TestStateEncodingProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n_features=st.integers(2, 30),
        seed=st.integers(0, 1000),
        position_fraction=st.floats(0.0, 1.0),
    )
    def test_encoding_dimension_and_bounds(self, n_features, seed, position_fraction):
        rng = np.random.default_rng(seed)
        representation = rng.random(n_features)
        position = int(round(position_fraction * n_features))
        eligible = list(range(position))
        selected = tuple(
            f for f in eligible if rng.random() < 0.5
        )
        state = EnvState(selected=selected, position=position)
        encoded = encode_state(representation, state, n_features)
        assert encoded.shape == (state_dim(n_features),)
        assert np.all(np.isfinite(encoded))
        # Mask block is exactly the selected indicator.
        mask = encoded[n_features : 2 * n_features]
        assert mask.sum() == len(selected)

    @settings(max_examples=30, deadline=None)
    @given(n_features=st.integers(2, 20), seed=st.integers(0, 100))
    def test_encoding_is_injective_on_logical_state(self, n_features, seed):
        """Different logical states encode differently (same task repr)."""
        rng = np.random.default_rng(seed)
        representation = rng.random(n_features)
        a = EnvState(selected=(), position=1)
        b = EnvState(selected=(0,), position=1)
        ea = encode_state(representation, a, n_features)
        eb = encode_state(representation, b, n_features)
        assert not np.array_equal(ea, eb)


# ---------------------------------------------------------------------------
# Replay buffer invariants
# ---------------------------------------------------------------------------


class ListReplay:
    """Reference replay with the list semantics the column ring replaced.

    Steps are ``(state, action, reward, next_state, done, return)`` tuples
    in a bounded deque, each carrying its own successor state; priorities
    are a parallel deque evicted with the steps.
    """

    def __init__(self, capacity, prioritized, alpha=0.6, epsilon=1e-3):
        self.steps = deque(maxlen=capacity)
        self.priorities = deque(maxlen=capacity) if prioritized else None
        self.alpha, self.epsilon = alpha, epsilon
        self.max_priority = 1.0
        self.last_indices = None

    def add(self, episode, final_state):
        for i in range(episode.length):
            last = i == episode.length - 1
            next_state = final_state if last else episode.states[i + 1]
            self.steps.append(
                (
                    episode.states[i],
                    episode.actions[i],
                    episode.rewards[i],
                    next_state,
                    last,
                    episode.returns[i],
                )
            )
            if self.priorities is not None:
                self.priorities.append(self.max_priority)

    def sample(self, batch_size, rng):
        if self.priorities is None:
            indices = rng.integers(0, len(self.steps), size=batch_size)
        else:
            scaled = (np.asarray(self.priorities) + self.epsilon) ** self.alpha
            indices = rng.choice(len(self.steps), size=batch_size, p=normalized(scaled))
        self.last_indices = indices
        return [self.steps[i] for i in indices]

    def update_priorities(self, errors):
        for index, error in zip(self.last_indices, errors):
            self.priorities[index] = float(error)
            self.max_priority = max(self.max_priority, float(error))


class TestReplayProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(1, 50),
        n_items=st.integers(0, 120),
        batch=st.integers(1, 16),
        seed=st.integers(0, 100),
    )
    def test_ring_semantics(self, capacity, n_items, batch, seed):
        buffer = ReplayBuffer(capacity)
        for i in range(n_items):
            buffer.add_trajectory(make_episode([0], rewards=[float(i)]))
        assert len(buffer) == min(capacity, n_items)
        if n_items:
            sample = buffer.sample(batch, np.random.default_rng(seed))
            assert len(sample) == batch
            oldest_kept = max(0, n_items - capacity)
            assert (sample.rewards >= oldest_kept).all()

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 30),
        lengths=st.lists(st.integers(0, 10), min_size=1, max_size=12),
        batch=st.integers(1, 16),
        prioritized=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_column_ring_matches_list_reference(
        self, capacity, lengths, batch, prioritized, seed
    ):
        # Capacities below one episode's length are included: the ring
        # then keeps that episode's tail, terminal step last.
        buffer = (
            PrioritizedReplayBuffer(capacity) if prioritized else ReplayBuffer(capacity)
        )
        reference = ListReplay(capacity, prioritized)
        ring_rng, list_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        data_rng = np.random.default_rng(seed + 1)
        for index, length in enumerate(lengths):
            # Row j is [episode, j]; row `length` is the terminal state,
            # which only the reference stores.
            states = np.column_stack(
                [np.full(length + 1, index), np.arange(length + 1)]
            ).astype(float)
            episode = make_episode(
                data_rng.integers(0, 2, size=length),
                rewards=data_rng.normal(size=length),
                states=states[:-1],
                gamma=0.9,
            )
            buffer.add_trajectory(episode)
            reference.add(episode, states[-1])
            assert len(buffer) == len(reference.steps)
            if not len(buffer):
                continue
            sampled = buffer.sample(batch, ring_rng)
            expected = reference.sample(batch, list_rng)
            np.testing.assert_array_equal(sampled.states, [step[0] for step in expected])
            np.testing.assert_array_equal(sampled.actions, [step[1] for step in expected])
            np.testing.assert_array_equal(sampled.rewards, [step[2] for step in expected])
            np.testing.assert_array_equal(sampled.dones, [step[4] for step in expected])
            np.testing.assert_array_equal(sampled.returns, [step[5] for step in expected])
            for row, step in enumerate(expected):
                if not step[4]:
                    np.testing.assert_array_equal(sampled.next_states[row], step[3])
            assert np.isfinite(sampled.next_states).all()
            if prioritized:
                errors = data_rng.random(batch)
                buffer.update_priorities(errors)
                reference.update_priorities(errors)


# ---------------------------------------------------------------------------
# Synthetic-data invariants
# ---------------------------------------------------------------------------


class TestSyntheticProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_features=st.integers(8, 40),
        n_seen=st.integers(1, 4),
        n_unseen=st.integers(1, 3),
    )
    def test_generated_suite_always_well_formed(self, seed, n_features, n_seen, n_unseen):
        spec = SyntheticSpec(
            name="p",
            n_instances=60,
            n_features=n_features,
            n_seen=n_seen,
            n_unseen=n_unseen,
            task_informative=3,
            n_concepts=2,
            seed=seed,
        )
        suite = generate_suite(spec)
        assert suite.table.n_features == n_features
        assert suite.n_seen == n_seen and suite.n_unseen == n_unseen
        assert np.all(np.isfinite(suite.table.features))
        for task in suite.all_tasks():
            assert set(np.unique(task.labels)) <= {0, 1}
            gt = task.ground_truth_features
            assert gt and all(0 <= f < n_features for f in gt)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_determinism(self, seed):
        spec = SyntheticSpec(
            name="d", n_instances=50, n_features=10, n_seen=2, n_unseen=1,
            task_informative=2, seed=seed,
        )
        a, b = generate_suite(spec), generate_suite(spec)
        np.testing.assert_array_equal(a.table.features, b.table.features)
        np.testing.assert_array_equal(a.table.labels, b.table.labels)


# ---------------------------------------------------------------------------
# Metric/trajectory interplay
# ---------------------------------------------------------------------------


class TestTrajectoryProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        rewards=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
        gamma=st.floats(0.0, 1.0),
    )
    def test_returns_satisfy_bellman_recursion(self, rewards, gamma):
        returns = make_episode([0] * len(rewards), rewards=rewards, gamma=gamma).returns
        for i in range(len(rewards) - 1):
            assert returns[i] == pytest.approx(rewards[i] + gamma * returns[i + 1])
        assert returns[-1] == pytest.approx(rewards[-1])
