"""Tests for the reference trainer's Adam optimiser."""

import numpy as np
import pytest

from repro.ann.layers import Dense
from repro.ann.network import MLP
from tests.oracles import (
    Adam,
    MSELoss,
    dense_backward,
    dense_forward,
    train_batch,
)


def quadratic_layer():
    """A 1->1 linear layer; training it on y = 3x is a quadratic bowl."""
    layer = Dense(1, 1, rng=np.random.default_rng(0))
    return layer


def train_steps(opt, steps=200):
    layer = quadratic_layer()
    net = [layer]
    x = np.linspace(-1, 1, 16)[:, None]
    y = 3.0 * x
    loss = MSELoss()
    for _ in range(steps):
        pred, cache = dense_forward(layer, x)
        _, grad_weights, grad_bias = dense_backward(
            layer, cache, loss.gradient(pred, y)
        )
        opt.step(net, [(grad_weights, grad_bias)])
    return layer


class TestAdam:
    def test_converges_on_quadratic(self):
        layer = train_steps(Adam(learning_rate=0.05), steps=400)
        assert layer.weights[0, 0] == pytest.approx(3.0, abs=1e-2)

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, Adam's first update has magnitude ~lr.
        layer = quadratic_layer()
        layer.weights[:] = 0.0
        grads = [(np.full_like(layer.weights, 7.0), np.zeros_like(layer.bias))]
        Adam(learning_rate=0.01).step([layer], grads)
        assert abs(layer.weights[0, 0]) == pytest.approx(0.01, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)
        with pytest.raises(ValueError):
            Adam(eps=0.0)

    def test_trains_full_mlp(self):
        net = MLP(2, (8,), 1, seed=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] + 2 * x[:, 1:]) * 0.5
        loss = MSELoss()
        opt = Adam(learning_rate=0.01)
        first = loss.value(net.forward(x), y)
        for _ in range(300):
            _, grads = train_batch(net, x, y, loss)
            opt.step(net.layers, grads)
        final = loss.value(net.forward(x), y)
        assert final < first / 10
