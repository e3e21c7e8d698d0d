"""Tests for the MLP builder, dueling head and state-dict round trips."""

import numpy as np
import pytest

from repro.nn.dueling import DuelingHead, DuelingNetwork
from repro.nn.initializers import he_init
from repro.nn.losses import BCELoss, HuberLoss
from repro.nn.network import MLP, load_state_dict, state_dict
from repro.nn.optim import Adam


class TestInitializers:
    def test_he_variance_scales_with_fan_in(self, rng):
        weights = he_init(1000, 50, rng)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.15)

    def test_invalid_fan_raises(self, rng):
        with pytest.raises(ValueError):
            he_init(0, 3, rng)


class TestMLP:
    def test_shapes(self, rng):
        net = MLP([6, 8, 4, 2], rng)
        assert net.in_features == 6
        assert net.out_features == 2
        assert net.forward(rng.standard_normal((3, 6))).shape == (3, 2)

    def test_output_activation(self, rng):
        net = MLP([4, 8, 1], rng, output_activation="sigmoid")
        out = net.forward(rng.standard_normal((10, 4)) * 100)
        assert np.all((out >= 0) & (out <= 1))

    def test_too_few_sizes_raises(self, rng):
        with pytest.raises(ValueError, match="at least"):
            MLP([5], rng)

    def test_unknown_activation_raises(self, rng):
        with pytest.raises(ValueError, match="unknown activation"):
            MLP([2, 2], rng, output_activation="swish")

    def test_can_learn_xor(self, rng):
        """End-to-end training sanity: a small MLP fits XOR."""
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        net = MLP([2, 8, 1], rng, output_activation="sigmoid")
        loss = BCELoss()
        optimizer = Adam(net.parameters(), lr=0.05)
        for _ in range(600):
            pred = net.forward(x)
            loss.forward(pred, y)
            optimizer.zero_grad()
            net.backward(loss.backward())
            optimizer.step()
        final = net.forward(x)
        assert np.all((final > 0.5) == (y > 0.5))


class TestStateDict:
    def test_round_trip(self, rng):
        net = MLP([3, 4, 2], rng, name="a")
        snapshot = state_dict(net)
        for parameter in net.parameters():
            parameter.value += 1.0
        load_state_dict(net, snapshot)
        for name, value in state_dict(net).items():
            np.testing.assert_array_equal(value, snapshot[name])

    def test_snapshot_is_a_copy(self, rng):
        net = MLP([2, 2], rng)
        snapshot = state_dict(net)
        net.parameters()[0].value += 5.0
        assert not np.array_equal(snapshot[net.parameters()[0].name], net.parameters()[0].value)

    def test_mismatched_names_raise(self, rng):
        net_a = MLP([2, 2], rng, name="a")
        net_b = MLP([2, 2], rng, name="b")
        with pytest.raises(ValueError, match="state dict mismatch"):
            load_state_dict(net_a, state_dict(net_b))

    def test_mismatched_shape_raises(self, rng):
        net = MLP([2, 2], rng)
        snapshot = state_dict(net)
        key = next(iter(snapshot))
        snapshot[key] = np.zeros((7, 7))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_state_dict(net, snapshot)


class TestDueling:
    def test_q_values_shape(self, rng):
        net = DuelingNetwork(10, 2, [16], rng)
        assert net.forward(rng.standard_normal((4, 10))).shape == (4, 2)

    def test_advantage_is_zero_centred(self, rng):
        """Q(s,·) - V(s) must average to zero across actions (Eqn. 1c)."""
        head = DuelingHead(8, 4, rng)
        x = rng.standard_normal((5, 8))
        q = head.forward(x)
        value = head.value_head.forward(x)
        np.testing.assert_allclose((q - value).mean(axis=1), 0.0, atol=1e-12)

    def test_backward_flows_to_both_streams(self, rng):
        head = DuelingHead(8, 3, rng)
        head.forward(rng.standard_normal((2, 8)))
        head.backward(np.ones((2, 3)))
        assert np.any(head.value_head.weight.grad != 0)
        # Uniform upstream gradient has zero centred component, so check a
        # non-uniform one reaches the advantage stream too.
        head.zero_grad()
        head.forward(rng.standard_normal((2, 8)))
        head.backward(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert np.any(head.advantage_head.weight.grad != 0)

    def test_needs_two_actions(self, rng):
        with pytest.raises(ValueError, match="at least 2 actions"):
            DuelingHead(4, 1, rng)

    def test_needs_hidden_layer(self, rng):
        with pytest.raises(ValueError, match="hidden"):
            DuelingNetwork(4, 2, [], rng)


class TestNumericalGradients:
    """Finite-difference checks of the full backward pass."""

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_mlp_gradients_match_finite_differences(self, rng, activation):
        """ReLU hidden layers under a ReLU output and Huber loss, or a
        sigmoid output and BCE loss (the reward classifier's pairing)."""
        net = MLP([4, 6, 3], rng, output_activation=activation)
        x = rng.standard_normal((5, 4))
        if activation == "sigmoid":
            target = (rng.random((5, 3)) < 0.5).astype(np.float64)
            loss = BCELoss()
        else:
            target = rng.standard_normal((5, 3))
            loss = HuberLoss()

        loss.forward(net.forward(x), target)
        net.zero_grad()
        net.backward(loss.backward())
        analytic = {p.name: p.grad.copy() for p in net.parameters()}

        epsilon = 1e-6
        for parameter in net.parameters():
            flat = parameter.value.reshape(-1)
            for index in range(0, flat.size, max(1, flat.size // 5)):
                original = flat[index]
                flat[index] = original + epsilon
                plus = loss.forward(net.forward(x), target)
                flat[index] = original - epsilon
                minus = loss.forward(net.forward(x), target)
                flat[index] = original
                numeric = (plus - minus) / (2 * epsilon)
                assert analytic[parameter.name].reshape(-1)[index] == pytest.approx(
                    numeric, rel=1e-4, abs=1e-7
                )

    def test_dueling_gradients_match_finite_differences(self, rng):
        net = DuelingNetwork(5, 3, [6], rng)
        x = rng.standard_normal((4, 5))
        target = rng.standard_normal((4, 3))
        loss = HuberLoss()

        loss.forward(net.forward(x), target)
        net.zero_grad()
        net.backward(loss.backward())
        analytic = {p.name: p.grad.copy() for p in net.parameters()}

        epsilon = 1e-6
        for parameter in net.parameters():
            flat = parameter.value.reshape(-1)
            index = flat.size // 2
            original = flat[index]
            flat[index] = original + epsilon
            plus = loss.forward(net.forward(x), target)
            flat[index] = original - epsilon
            minus = loss.forward(net.forward(x), target)
            flat[index] = original
            numeric = (plus - minus) / (2 * epsilon)
            assert analytic[parameter.name].reshape(-1)[index] == pytest.approx(
                numeric, rel=1e-4, abs=1e-7
            )
