"""Bit-exact differential tests of the fit hot path.

The references are the per-array implementations the flat ones replaced:
a tie loop ``roc_auc_score``, an Adam with one moment array per parameter
and a per-parameter gradient clip, and the per-classifier pretraining loop
that the lockstep :func:`repro.nn.classifier.pretrain` replaced, on the
2-D ``Linear``/``BCELoss`` arithmetic that the stack axis generalised.
Production must match them bit for bit, not approximately: the training
fingerprint depends on every reward and every weight.
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
import repro.rl.reward as reward_module
from repro.analysis.numerics import safe_log
from repro.core.pafeat import PAFeat
from repro.eval.metrics import roc_auc_score
from repro.nn.classifier import MaskedMLPClassifier, pretrain
from repro.nn.dueling import DuelingNetwork
from repro.nn.layers import Linear, Parameter
from repro.nn.losses import BCELoss, HuberLoss
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


def reference_fit(
    classifier: MaskedMLPClassifier, features: np.ndarray, labels: np.ndarray
) -> None:
    """The per-classifier pretraining loop: one network, one minibatch at a time."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    classifier._mean = features.mean(axis=0)
    classifier._std = features.std(axis=0)
    classifier._std = np.where(classifier._std > 0, classifier._std, 1.0)
    x = (features - classifier._mean) / classifier._std
    rng, net = classifier._rng, classifier._net
    optimizer = classifier_module.Adam(net.parameters(), lr=classifier.lr)
    loss = BCELoss()
    n = x.shape[0]
    for _ in range(classifier.n_epochs):
        order = rng.permutation(n)
        for start in range(0, n, classifier.batch_size):
            batch = order[start : start + classifier.batch_size]
            xb = x[batch]
            if classifier.mask_augment > 0.0:
                drop = rng.random(classifier.n_features) < classifier.mask_augment
                if drop.all():
                    drop[rng.integers(classifier.n_features)] = False
                xb = xb.copy()
                xb[:, drop] = 0.0
            probs = net.forward(xb)
            loss.forward(probs, labels[batch])
            optimizer.zero_grad()
            net.backward(loss.backward())
            optimizer.step()
    classifier._fitted = True


def reference_pretrain(classifiers, features, rows, labels) -> None:
    """:func:`pretrain`'s contract, one classifier after another."""
    for classifier, fit_rows, fit_labels in zip(classifiers, rows, labels):
        reference_fit(classifier, features[fit_rows], fit_labels)


def reference_linear_forward(layer: Linear, x: np.ndarray) -> np.ndarray:
    """The 2-D layer's forward arithmetic before the stack axis."""
    return x @ layer.weight.value + layer.bias.value


def reference_linear_backward(
    layer: Linear, x: np.ndarray, grad_output: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2-D layer's ``(dW, db, dx)`` before the stack axis."""
    return (
        x.T @ grad_output,
        grad_output.sum(axis=0),
        grad_output @ layer.weight.value.T,
    )


def reference_bce(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """The 2-D BCE value and gradient, normalised by the whole batch."""
    pred = np.clip(pred, 1e-12, 1.0 - 1e-12)
    value = float(-np.mean(target * safe_log(pred) + (1.0 - target) * safe_log(1.0 - pred)))
    return value, (pred - target) / (pred * (1.0 - pred) * pred.size)


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
        from repro import load_model, save_model

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


def test_fit_matches_a_fit_with_per_classifier_pretraining(tiny_split, monkeypatch):
    train, _ = tiny_split
    production = _fit_digest(train)
    monkeypatch.setattr(reward_module, "pretrain", reference_pretrain)
    assert _fit_digest(train) == production


# ----------------------------------------------------------------------
# (e) The stack axis: Linear and BCELoss slice by slice
# ----------------------------------------------------------------------
class TestStackedLayers:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 7),
        n=st.integers(1, 70),
        d_in=st.integers(1, 40),
        d_out=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    def test_linear_stack_equals_its_layers_slice_by_slice(self, k, n, d_in, d_out, seed):
        rng = np.random.default_rng(seed)
        layers = [Linear(d_in, d_out, rng) for _ in range(k)]
        for layer in layers:
            layer.bias.value[...] = rng.normal(size=d_out)
        stacked = Linear.stack(layers)
        x = rng.normal(size=(k, n, d_in))
        grad = rng.normal(size=(k, n, d_out))
        out = stacked.forward(x)
        grad_in = stacked.backward(grad)
        for i, layer in enumerate(layers):
            single_out = layer.forward(x[i])
            single_grad_in = layer.backward(grad[i])
            assert _bits([out[i]]) == _bits([single_out]) == _bits(
                [reference_linear_forward(layer, x[i])]
            )
            weight_grad, bias_grad, input_grad = reference_linear_backward(
                layer, x[i], grad[i]
            )
            assert (
                _bits([grad_in[i], stacked.weight.grad[i], stacked.bias.grad[i]])
                == _bits([single_grad_in, layer.weight.grad, layer.bias.grad])
                == _bits([input_grad, weight_grad, bias_grad])
            )

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 7),
        n=st.integers(1, 70),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_bce_is_normalised_per_network(self, k, n, d, seed):
        rng = np.random.default_rng(seed)
        pred = rng.random((k, n, d))
        pred[rng.random((k, n, d)) < 0.05] = 0.0  # exercises the clip
        target = (rng.random((k, n, d)) < 0.5).astype(np.float64)
        stacked = BCELoss()
        total = stacked.forward(pred, target)
        grad = stacked.backward()
        values = []
        for i in range(k):
            single = BCELoss()
            values.append(single.forward(pred[i], target[i]))
            expected_value, expected_grad = reference_bce(pred[i], target[i])
            assert repr(values[-1]) == repr(expected_value)
            assert _bits([grad[i]]) == _bits([single.backward()]) == _bits([expected_grad])
        assert total == pytest.approx(sum(values), rel=1e-12)


# ----------------------------------------------------------------------
# (f) Lockstep pretraining against the per-classifier loop
# ----------------------------------------------------------------------
@st.composite
def pretraining_cases(draw):
    k = draw(st.integers(1, 7))
    m = draw(st.integers(1, 40))
    hidden = draw(st.sampled_from([(32, 16), (8,), (12, 8, 4)]))
    batch_size = draw(st.sampled_from([8, 16]))
    # Below one batch, whole batches only, or a partial last batch.
    n = draw(
        st.sampled_from([batch_size - 3, 2 * batch_size, 3 * batch_size + 5])
    )
    mask_augment = draw(st.sampled_from([0.0, 0.9]))
    seed = draw(st.integers(0, 2**31 - 1))
    constant_column = draw(st.booleans())
    return k, m, hidden, batch_size, n, mask_augment, seed, constant_column


def _classifier_bits(classifier: MaskedMLPClassifier, probe: np.ndarray) -> list[bytes]:
    return _bits(
        [p.value for p in classifier._net.parameters()]
        + [classifier._mean, classifier._std, classifier.predict_proba(probe)]
    )


class TestLockstepPretraining:
    @settings(max_examples=60, deadline=None)
    @given(pretraining_cases())
    def test_matches_the_per_classifier_loop(self, case):
        k, m, hidden, batch_size, n, mask_augment, seed, constant_column = case
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(n + 9, m))
        if constant_column:
            table[:, rng.integers(m)] = 2.5  # std 0: standardised by 1
        rows = [rng.permutation(n + 9)[:n] for _ in range(k)]
        labels = [(rng.random(n) < 0.5).astype(np.int64) for _ in range(k)]

        def classifiers() -> list[MaskedMLPClassifier]:
            return [
                MaskedMLPClassifier(
                    m, hidden=hidden, n_epochs=3, batch_size=batch_size,
                    mask_augment=mask_augment, seed=seed + i,
                )
                for i in range(k)
            ]

        lockstep, loop = classifiers(), classifiers()
        pretrain(lockstep, table, rows, labels)
        reference_pretrain(loop, table, rows, labels)
        for stacked, alone in zip(lockstep, loop):
            assert _classifier_bits(stacked, table) == _classifier_bits(alone, table)

        # ``fit`` is the K = 1 call over every row.
        fitted, alone = classifiers()[0], classifiers()[0]
        fitted.fit(table[rows[0]], labels[0])
        reference_fit(alone, table[rows[0]], labels[0])
        assert _classifier_bits(fitted, table) == _classifier_bits(alone, table)

    def test_single_column_redraw_keeps_the_column(self):
        """At m = 1 nearly every draw drops the only column and is redrawn."""
        rng = np.random.default_rng(4)
        table = rng.normal(size=(40, 1))
        labels = (table[:, 0] > 0).astype(np.int64)
        lockstep = [MaskedMLPClassifier(1, hidden=(8,), n_epochs=4, batch_size=8,
                                        mask_augment=0.9, seed=s) for s in (1, 2)]
        loop = [MaskedMLPClassifier(1, hidden=(8,), n_epochs=4, batch_size=8,
                                    mask_augment=0.9, seed=s) for s in (1, 2)]
        rows = [np.arange(40)] * 2
        pretrain(lockstep, table, rows, [labels] * 2)
        reference_pretrain(loop, table, rows, [labels] * 2)
        for stacked, alone in zip(lockstep, loop):
            assert _classifier_bits(stacked, table) == _classifier_bits(alone, table)
        assert lockstep[0].score(table, labels) > 0.9

    @pytest.mark.parametrize(
        "change",
        [{"lr": 0.5}, {"n_epochs": 2}, {"batch_size": 7}, {"mask_augment": 0.1},
         {"hidden": (8,)}],
    )
    def test_rejects_classifiers_that_differ(self, change):
        table = np.zeros((20, 3))
        kwargs = {"hidden": (4,), "n_epochs": 1}
        first = MaskedMLPClassifier(3, **kwargs)
        second = MaskedMLPClassifier(3, **{**kwargs, **change})
        rows = [np.arange(20)] * 2
        with pytest.raises(ValueError, match="share hyperparameters"):
            pretrain([first, second], table, rows, [np.zeros(20)] * 2)

    def test_rejects_unequal_row_counts(self):
        classifiers = [MaskedMLPClassifier(3, hidden=(4,), n_epochs=1) for _ in range(2)]
        with pytest.raises(ValueError):
            pretrain(
                classifiers, np.zeros((20, 3)), [np.arange(20), np.arange(10)],
                [np.zeros(20), np.zeros(10)],
            )
