"""Unit tests for the NumPy layer substrate."""

import numpy as np
import pytest

from repro.nn.layers import (
    Linear,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
)


class TestParameter:
    def test_value_and_grad_shapes_match(self):
        parameter = Parameter("w", np.ones((3, 2)))
        assert parameter.grad.shape == (3, 2)
        assert parameter.shape == (3, 2)

    def test_zero_grad_clears_accumulation(self):
        parameter = Parameter("w", np.ones(4))
        parameter.grad += 5.0
        parameter.zero_grad()
        assert np.all(parameter.grad == 0.0)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 3, rng)
        out = layer.forward(rng.standard_normal((7, 5)))
        assert out.shape == (7, 3)

    def test_forward_computes_affine_map(self, rng):
        layer = Linear(2, 2, rng)
        layer.weight.value[...] = np.array([[1.0, 0.0], [0.0, 2.0]])
        layer.bias.value[...] = np.array([1.0, -1.0])
        out = layer.forward(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[4.0, 7.0]])

    def test_single_sample_promoted_to_batch(self, rng):
        layer = Linear(4, 2, rng)
        out = layer.forward(rng.standard_normal(4))
        assert out.shape == (1, 2)

    def test_wrong_input_width_raises(self, rng):
        layer = Linear(4, 2, rng)
        with pytest.raises(ValueError, match="expected input with 4 features"):
            layer.forward(np.zeros((1, 5)))

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(4, 2, rng)
        with pytest.raises(RuntimeError, match="backward called before"):
            layer.backward(np.zeros((1, 2)))

    def test_backward_accumulates_weight_grad(self, rng):
        layer = Linear(2, 1, rng)
        x = np.array([[1.0, 2.0]])
        layer.forward(x)
        layer.backward(np.array([[1.0]]))
        np.testing.assert_allclose(layer.weight.grad, [[1.0], [2.0]])
        np.testing.assert_allclose(layer.bias.grad, [1.0])

    def test_backward_returns_input_gradient(self, rng):
        layer = Linear(2, 2, rng)
        layer.weight.value[...] = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.forward(np.ones((1, 2)))
        grad_in = layer.backward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(grad_in, [[3.0, 7.0]])

    def test_invalid_dims_raise(self, rng):
        with pytest.raises(ValueError, match="must be positive"):
            Linear(0, 2, rng)


class TestActivations:
    def test_relu_clips_negative(self):
        relu = ReLU()
        out = relu.forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0])

    def test_relu_backward_masks_gradient(self):
        relu = ReLU()
        relu.forward(np.array([-1.0, 3.0]))
        grad = relu.backward(np.array([5.0, 5.0]))
        np.testing.assert_allclose(grad, [0.0, 5.0])

    def test_sigmoid_is_bounded_and_centred(self):
        sigmoid = Sigmoid()
        out = sigmoid.forward(np.array([-100.0, 0.0, 100.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-9)

    def test_sigmoid_gradient_peaks_at_zero(self):
        sigmoid = Sigmoid()
        sigmoid.forward(np.zeros(1))
        np.testing.assert_allclose(sigmoid.backward(np.ones(1)), [0.25])

    def test_activation_backward_before_forward_raises(self):
        for activation in (ReLU(), Sigmoid()):
            with pytest.raises(RuntimeError):
                activation.backward(np.ones(1))


class TestSequential:
    def test_composes_forward(self, rng):
        net = Sequential([Linear(3, 4, rng), ReLU(), Linear(4, 2, rng)])
        out = net.forward(rng.standard_normal((5, 3)))
        assert out.shape == (5, 2)

    def test_parameters_collected_in_order(self, rng):
        net = Sequential([Linear(3, 4, rng), ReLU(), Linear(4, 2, rng)])
        assert len(net.parameters()) == 4  # two weights + two biases

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one layer"):
            Sequential([])

    def test_len_and_iter(self, rng):
        net = Sequential([Linear(2, 2, rng), ReLU()])
        assert len(net) == 2
        assert len(list(net)) == 2

    def test_zero_grad_resets_all(self, rng):
        net = Sequential([Linear(2, 2, rng)])
        net.forward(np.ones((1, 2)))
        net.backward(np.ones((1, 2)))
        assert any(np.any(p.grad != 0) for p in net.parameters())
        net.zero_grad()
        assert all(np.all(p.grad == 0) for p in net.parameters())
