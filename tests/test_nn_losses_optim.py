"""Unit tests for losses and optimizers."""

import numpy as np
import pytest

from repro.nn.layers import Linear, Parameter
from repro.nn.losses import BCELoss, HuberLoss
from repro.nn.optim import Adam


class TestHuberLoss:
    def test_quadratic_inside_delta(self):
        loss = HuberLoss(delta=1.0)
        value = loss.forward(np.array([[0.5]]), np.array([[0.0]]))
        assert value == pytest.approx(0.5 * 0.25)

    def test_linear_outside_delta(self):
        loss = HuberLoss(delta=1.0)
        value = loss.forward(np.array([[3.0]]), np.array([[0.0]]))
        assert value == pytest.approx(0.5 + 2.0)  # 0.5*delta^2 + delta*(3-1)

    def test_gradient_clipped_outside_delta(self):
        loss = HuberLoss(delta=1.0)
        loss.forward(np.array([[10.0]]), np.array([[0.0]]))
        grad = loss.backward()
        assert grad[0, 0] == pytest.approx(1.0)  # clipped to delta, batch 1

    def test_invalid_delta(self):
        with pytest.raises(ValueError, match="delta must be positive"):
            HuberLoss(delta=0.0)


class TestBCELoss:
    def test_confident_correct_is_small(self):
        loss = BCELoss()
        value = loss.forward(np.array([[0.999]]), np.array([[1.0]]))
        assert value < 0.01

    def test_confident_wrong_is_large(self):
        loss = BCELoss()
        value = loss.forward(np.array([[0.999]]), np.array([[0.0]]))
        assert value > 5.0

    def test_gradient_sign(self):
        loss = BCELoss()
        loss.forward(np.array([[0.8]]), np.array([[0.0]]))
        assert loss.backward()[0, 0] > 0

    def test_clipping_avoids_infinities(self):
        loss = BCELoss()
        value = loss.forward(np.array([[0.0]]), np.array([[1.0]]))
        assert np.isfinite(value)

    def test_cache_gives_forwards_gradient(self, rng):
        """``cache`` keeps what ``forward`` keeps: the gradient is bit-equal,
        for a 2-D batch and a stacked one, clipped ends included."""
        for shape in ((9, 1), (3, 9, 1)):
            pred = rng.uniform(size=shape)
            pred.flat[0], pred.flat[1] = 0.0, 1.0
            target = (rng.uniform(size=shape[:-1]) < 0.5).astype(np.float64)
            full, cached = BCELoss(), BCELoss()
            full.forward(pred, target)
            cached.cache(pred, target)
            assert np.array_equal(cached.backward(), full.backward())


class TestAdam:
    def test_minimises_quadratic(self):
        parameter = Parameter("w", np.array([5.0]))
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(200):
            parameter.grad[...] = 2.0 * parameter.value  # d/dw w^2
            optimizer.step()
            parameter.zero_grad()
        assert abs(parameter.value[0]) < 0.05

    def test_first_step_size_is_lr(self):
        parameter = Parameter("w", np.array([1.0]))
        optimizer = Adam([parameter], lr=0.01)
        parameter.grad[...] = np.array([123.0])
        optimizer.step()
        # Bias correction makes the first step ~lr regardless of grad scale.
        assert abs(1.0 - parameter.value[0]) == pytest.approx(0.01, rel=1e-3)

    def test_requires_parameters(self):
        with pytest.raises(ValueError, match="at least one parameter"):
            Adam([], lr=0.1)

    def test_invalid_betas(self):
        parameter = Parameter("w", np.zeros(1))
        with pytest.raises(ValueError, match="betas"):
            Adam([parameter], betas=(1.0, 0.999))

    def test_clip_grad_norm_rescales(self, rng):
        layer = Linear(4, 4, rng)
        optimizer = Adam(layer.parameters())
        for parameter in layer.parameters():
            parameter.grad[...] = 100.0
        norm = optimizer.clip_grad_norm(1.0)
        assert norm > 1.0
        total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in layer.parameters()))
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_clip_noop_when_under_limit(self, rng):
        layer = Linear(2, 2, rng)
        optimizer = Adam(layer.parameters())
        for parameter in layer.parameters():
            parameter.grad[...] = 1e-4
        before = [p.grad.copy() for p in layer.parameters()]
        optimizer.clip_grad_norm(10.0)
        for parameter, saved in zip(layer.parameters(), before):
            np.testing.assert_array_equal(parameter.grad, saved)
