"""Tests for the dense layer, including full numerical gradient checks."""

import numpy as np
import pytest

from repro.ann.activations import Tanh
from repro.ann.layers import Dense
from tests.oracles import dense_backward, dense_forward


class TestForward:
    def test_output_shape(self):
        layer = Dense(5, 3)
        out = layer.forward(np.zeros((7, 5)))
        assert out.shape == (7, 3)

    def test_single_sample_promoted(self):
        layer = Dense(4, 2)
        out = layer.forward(np.zeros(4))
        assert out.shape == (1, 2)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            Dense(4, 2).forward(np.zeros((1, 5)))

    def test_linear_layer_is_affine(self):
        layer = Dense(3, 2)
        x = np.eye(3)
        out = layer.forward(x)
        assert np.allclose(out, layer.weights + layer.bias)

    def test_glorot_init_bounded(self):
        layer = Dense(10, 10, rng=np.random.default_rng(1))
        limit = np.sqrt(6.0 / 20)
        assert (np.abs(layer.weights) <= limit).all()
        assert (layer.bias == 0).all()

    def test_seeded_init_deterministic(self):
        a = Dense(4, 4, rng=np.random.default_rng(3))
        b = Dense(4, 4, rng=np.random.default_rng(3))
        assert np.allclose(a.weights, b.weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, 0)


class TestBackward:
    def test_numerical_gradcheck(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, Tanh(), rng=rng)
        x = rng.normal(size=(5, 4))
        upstream = rng.normal(size=(5, 3))

        _, cache = dense_forward(layer, x)
        grad_x, _, _ = dense_backward(layer, cache, upstream)

        eps = 1e-6

        def loss():
            return (layer.forward(x) * upstream).sum()

        # Weight gradients.
        numeric_w = np.zeros_like(layer.weights)
        for i in range(layer.weights.shape[0]):
            for j in range(layer.weights.shape[1]):
                layer.weights[i, j] += eps
                up = loss()
                layer.weights[i, j] -= 2 * eps
                down = loss()
                layer.weights[i, j] += eps
                numeric_w[i, j] = (up - down) / (2 * eps)
        _, cache = dense_forward(layer, x)
        _, grad_weights, grad_bias = dense_backward(layer, cache, upstream)
        assert np.allclose(grad_weights, numeric_w, atol=1e-4)

        # Bias gradients.
        numeric_b = np.zeros_like(layer.bias)
        for j in range(layer.bias.size):
            layer.bias[j] += eps
            up = loss()
            layer.bias[j] -= 2 * eps
            down = loss()
            layer.bias[j] += eps
            numeric_b[j] = (up - down) / (2 * eps)
        assert np.allclose(grad_bias, numeric_b, atol=1e-4)

        # Input gradients.
        numeric_x = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                x[i, j] += eps
                up = loss()
                x[i, j] -= 2 * eps
                down = loss()
                x[i, j] += eps
                numeric_x[i, j] = (up - down) / (2 * eps)
        assert np.allclose(grad_x, numeric_x, atol=1e-4)


class TestMisc:
    def test_parameter_count(self):
        assert Dense(5, 3).parameter_count == 5 * 3 + 3
