"""Bit-exact differential tests of the fit hot path.

The references are the per-array implementations the flat ones replaced:
a tie loop ``roc_auc_score`` and an Adam with one moment array per
parameter and a per-parameter gradient clip.  Production must match them
bit for bit, not approximately: the training fingerprint depends on every
reward and every weight.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.classifier as classifier_module
import repro.rl.agent as agent_module
from repro.core.pafeat import PAFeat
from repro.eval.metrics import roc_auc_score
from repro.nn.dueling import DuelingNetwork
from repro.nn.layers import Parameter
from repro.nn.losses import HuberLoss
from repro.nn.optim import Adam
from repro.rl.agent import DuelingDQNAgent
from repro.rl.replay import ReplayBatch
from repro.rl.schedules import LinearDecay
from tests.conftest import fast_config


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def reference_roc_auc_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """The tie-loop AUC, with its label check."""
    y_true = np.asarray(y_true).reshape(-1)
    y_score = np.asarray(y_score, dtype=np.float64).reshape(-1)
    if y_true.shape != y_score.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_score.shape}")
    if y_true.size == 0:
        raise ValueError("metrics are undefined on empty inputs")
    unique = set(np.unique(y_true).tolist())
    if not unique <= {0, 1}:
        raise ValueError(f"y_true must be binary in {{0, 1}}, got values {sorted(unique)}")
    y_true = y_true.astype(np.int64)
    n_pos = int(np.sum(y_true == 1))
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(y_score, kind="mergesort")
    sorted_scores = y_score[order]
    ranks = np.empty(y_true.size, dtype=np.float64)
    i = 0
    while i < y_true.size:
        j = i
        while j + 1 < y_true.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum_pos = float(np.sum(ranks[y_true == 1]))
    u_statistic = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)


class ReferenceAdam:
    """Adam over one moment array per parameter, stepping them in a loop."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def clip_grad_norm(self, max_norm: float) -> float:
        total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in self.parameters))
        if total > max_norm:
            scale = max_norm / (total + 1e-12)
            for parameter in self.parameters:
                parameter.grad *= scale
        return total

    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        arrays: dict[str, np.ndarray] = {}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            arrays[f"m/{i}"] = m.copy()
            arrays[f"v/{i}"] = v.copy()
        meta = {"step_count": self._step_count, "n_parameters": len(self.parameters)}
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        self._step_count = int(meta["step_count"])
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            m[...] = arrays[f"m/{i}"]
            v[...] = arrays[f"v/{i}"]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _bits(arrays: dict[str, np.ndarray] | list[np.ndarray]) -> list[bytes]:
    """Exact bytes, so -0.0 vs 0.0 and NaN payloads count as differences."""
    if isinstance(arrays, dict):
        arrays = [arrays[name] for name in sorted(arrays)]
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


# ----------------------------------------------------------------------
# (a) AUC
# ----------------------------------------------------------------------
_PALETTE = st.lists(
    st.sampled_from([0.0, -0.0, np.nan, 0.5, 1.0, -1.0, np.inf, -np.inf, 5e-324])
    | st.floats(allow_nan=True, allow_infinity=True),
    min_size=1,
    max_size=6,
)


@st.composite
def auc_cases(draw):
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "ties", "constant", "sprinkled"]))
    if kind == "continuous":
        scores = rng.random(n)
    elif kind == "ties":
        scores = rng.choice(np.asarray(draw(_PALETTE)), size=n)
    elif kind == "constant":
        scores = np.full(n, draw(_PALETTE)[0])
    else:  # continuous, with palette values (NaN, ±0.0, ...) dropped in
        scores = rng.random(n)
        where = rng.random(n) < draw(st.floats(0.0, 1.0))
        scores[where] = rng.choice(np.asarray(draw(_PALETTE)), size=int(where.sum()))
    labels = rng.random(n) < draw(st.floats(0.0, 1.0))
    dtype = draw(st.sampled_from([np.int64, np.int32, bool, np.float64, np.float32]))
    return labels.astype(dtype), scores


class TestAUCParity:
    @settings(max_examples=300, deadline=None)
    @given(auc_cases())
    def test_matches_the_tie_loop_by_repr(self, case):
        labels, scores = case
        expected = reference_roc_auc_score(labels, scores)
        assert repr(roc_auc_score(labels, scores)) == repr(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 50),
        bad=st.sampled_from([2, -1, 0.5, np.nan, 3.0]),
        seed=st.integers(0, 2**16),
    )
    def test_non_binary_labels_raise_the_same_message(self, n, bad, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n).astype(np.float64)
        labels[rng.integers(n)] = bad
        scores = rng.random(n)
        with pytest.raises(ValueError) as expected:
            reference_roc_auc_score(labels, scores)
        with pytest.raises(ValueError) as actual:
            roc_auc_score(labels, scores)
        assert str(actual.value) == str(expected.value)


# ----------------------------------------------------------------------
# (b) Optimizer
# ----------------------------------------------------------------------
STATE_DIM, N_ACTIONS = 41, 2


def _network(hidden=(64,)) -> DuelingNetwork:
    return DuelingNetwork(STATE_DIM, N_ACTIONS, hidden, np.random.default_rng(3))


def _backward(network: DuelingNetwork, rng: np.random.Generator, scale: float) -> None:
    """One Huber backward pass on a random batch, accumulating into ``.grad``."""
    states = rng.normal(size=(32, STATE_DIM))
    targets = scale * rng.normal(size=(32, N_ACTIONS))
    loss = HuberLoss()
    loss.forward(network.forward(states), targets)
    network.backward(loss.backward())


def _weights(network: DuelingNetwork) -> list[bytes]:
    return _bits([p.value for p in network.parameters()])


class TestAdamParity:
    @pytest.mark.parametrize("max_norm", [None, 10.0, 0.5, 1e-3])
    @pytest.mark.parametrize("hidden", [(64,), (32, 16)])
    def test_flat_steps_match_the_per_array_loop(self, max_norm, hidden):
        flat_net, loop_net = _network(hidden), _network(hidden)
        flat = Adam(flat_net.parameters(), lr=1e-2)
        loop = ReferenceAdam(loop_net.parameters(), lr=1e-2)
        flat_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
        clipped = 0
        for step in range(12):
            scale = 10.0 ** (step % 4)  # some batches far above the clip norm
            for optimizer, network, rng in (
                (flat, flat_net, flat_rng),
                (loop, loop_net, loop_rng),
            ):
                optimizer.zero_grad()
                _backward(network, rng, scale)
            if max_norm is not None:
                norm = flat.clip_grad_norm(max_norm)
                assert repr(norm) == repr(loop.clip_grad_norm(max_norm))
                clipped += norm > max_norm
            assert _bits([p.grad for p in flat_net.parameters()]) == _bits(
                [p.grad for p in loop_net.parameters()]
            )
            flat.step()
            loop.step()
            assert _weights(flat_net) == _weights(loop_net)
        flat_meta, flat_arrays = flat.capture_state()
        loop_meta, loop_arrays = loop.capture_state()
        assert flat_meta == loop_meta
        assert sorted(flat_arrays) == sorted(loop_arrays)
        assert _bits(flat_arrays) == _bits(loop_arrays)
        if max_norm is not None and max_norm < 1.0:
            assert clipped  # the rescale itself is under test

    def test_capture_restore_round_trip_keeps_keys_and_shapes(self):
        network = _network()
        optimizer = Adam(network.parameters(), lr=1e-2)
        rng = np.random.default_rng(0)
        for _ in range(3):
            optimizer.zero_grad()
            _backward(network, rng, 1.0)
            optimizer.step()
        meta, arrays = optimizer.capture_state()
        parameters = network.parameters()
        assert meta["n_parameters"] == len(parameters)
        assert set(arrays) == {
            f"{kind}/{i}" for kind in "mv" for i in range(len(parameters))
        }
        for i, parameter in enumerate(parameters):
            assert arrays[f"m/{i}"].shape == parameter.shape
            assert arrays[f"v/{i}"].shape == parameter.shape

        # A fresh optimizer restored from the snapshot, and the reference
        # restored from the same snapshot, keep stepping identically.
        resumed_net, loop_net = _network(), _network()
        for target in (resumed_net, loop_net):
            for source, parameter in zip(parameters, target.parameters()):
                parameter.value[...] = source.value
        resumed = Adam(resumed_net.parameters(), lr=1e-2)
        loop = ReferenceAdam(loop_net.parameters(), lr=1e-2)
        resumed.restore_state(meta, arrays)
        loop.restore_state(meta, arrays)
        assert _bits(resumed.capture_state()[1]) == _bits(arrays)
        for optimizer, net in ((resumed, resumed_net), (loop, loop_net)):
            optimizer.zero_grad()
            _backward(net, np.random.default_rng(1), 1.0)
            optimizer.step()
        assert _weights(resumed_net) == _weights(loop_net)


# ----------------------------------------------------------------------
# (c) Parameters stay views of the optimizer's buffers
# ----------------------------------------------------------------------
def _agent() -> DuelingDQNAgent:
    return DuelingDQNAgent(
        state_dim=STATE_DIM,
        n_actions=N_ACTIONS,
        hidden=(16,),
        gamma=0.9,
        lr=1e-2,
        epsilon_schedule=LinearDecay(1.0, 0.1, 100),
        target_sync_every=50,
        rng=np.random.default_rng(5),
    )


def _batch(seed: int, state_dim: int = STATE_DIM) -> ReplayBatch:
    rng = np.random.default_rng(seed)
    return ReplayBatch(
        states=rng.normal(size=(8, state_dim)),
        actions=rng.integers(0, N_ACTIONS, 8),
        rewards=rng.random(8),
        next_states=rng.normal(size=(8, state_dim)),
        dones=np.zeros(8, dtype=bool),
        returns=np.zeros(8),
    )


def _assert_views_and_live(agent: DuelingDQNAgent) -> None:
    """Every parameter aliases the buffers, and an update moves ``q_values``."""
    optimizer = agent._optimizer
    for parameter in agent.online.parameters():
        assert np.shares_memory(parameter.value, optimizer._values), parameter.name
        assert np.shares_memory(parameter.grad, optimizer._grads), parameter.name
    states = _batch(99, agent.state_dim).states
    before = agent.q_values(states)
    agent.update(_batch(1, agent.state_dim))
    assert not np.array_equal(agent.q_values(states), before)


class TestParametersStayViews:
    def test_after_construction(self):
        _assert_views_and_live(_agent())

    def test_after_load_policy_and_sync_target(self):
        agent, donor = _agent(), _agent()
        donor.update(_batch(2))
        agent.load_policy(donor.save_policy())
        _assert_views_and_live(agent)
        agent.sync_target()
        _assert_views_and_live(agent)

    def test_after_restore_state(self):
        agent, donor = _agent(), _agent()
        donor.update(_batch(3))
        agent.restore_state(*donor.capture_state())
        _assert_views_and_live(agent)

    def test_after_training_state_restore(self, tiny_split):
        train, _ = tiny_split
        model = PAFeat(fast_config(n_iterations=2)).fit(train)
        model._restore_training_state(*model._capture_training_state())
        _assert_views_and_live(model.trainer.agent)

    def test_after_load_model(self, fitted_tiny_model, tmp_path):
        from repro.io import load_model, save_model

        save_model(fitted_tiny_model, tmp_path / "model")
        _assert_views_and_live(load_model(tmp_path / "model").inference_agent())


# ----------------------------------------------------------------------
# (d) A whole fit
# ----------------------------------------------------------------------
def _fit_digest(train) -> tuple[str, dict]:
    model = PAFeat(fast_config(n_iterations=15)).fit(train)
    digest = hashlib.sha256()
    for blob in _bits(model.trainer.agent.save_policy()):
        digest.update(blob)
    return digest.hexdigest(), model.select_all_unseen()


def test_fit_matches_a_fit_on_the_references(tiny_split, monkeypatch):
    train, _ = tiny_split
    production = _fit_digest(train)
    monkeypatch.setattr(classifier_module, "roc_auc_score", reference_roc_auc_score)
    monkeypatch.setattr(classifier_module, "Adam", ReferenceAdam)
    monkeypatch.setattr(agent_module, "Adam", ReferenceAdam)
    assert _fit_digest(train) == production
