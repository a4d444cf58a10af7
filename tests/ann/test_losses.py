"""Tests for the reference trainer's loss function."""

import numpy as np
import pytest

from tests.oracles import MSELoss


def numerical_gradient(loss, pred, target, eps=1e-6):
    grad = np.zeros_like(pred)
    flat = pred.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss.value(pred, target)
        flat[i] = orig - eps
        down = loss.value(pred, target)
        flat[i] = orig
        out[i] = (up - down) / (2 * eps)
    return grad


class TestMSE:
    def test_zero_on_exact(self):
        pred = np.array([[1.0], [2.0]])
        assert MSELoss().value(pred, pred.copy()) == 0.0

    def test_value(self):
        pred = np.array([[2.0]])
        target = np.array([[0.0]])
        assert MSELoss().value(pred, target) == pytest.approx(4.0)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 2))
        analytic = MSELoss().gradient(pred, target)
        numeric = numerical_gradient(MSELoss(), pred, target)
        assert np.allclose(analytic, numeric, atol=1e-5)


class TestValidation:
    def test_shape_mismatch_rejected(self):
        loss = MSELoss()
        with pytest.raises(ValueError):
            loss.value(np.zeros((2, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            loss.gradient(np.zeros((2, 1)), np.zeros((3, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MSELoss().value(np.zeros((0, 1)), np.zeros((0, 1)))
