"""Tests for the MLP, including the paper's topology."""

import numpy as np
import pytest

from repro.ann.network import MLP, PAPER_TOPOLOGY
from tests.oracles import Adam, MSELoss, train_batch


class TestConstruction:
    def test_paper_topology(self):
        # Figure 3's best size {10, 18, 5, 1}.
        net = MLP(10, PAPER_TOPOLOGY, 1)
        assert net.topology == (10, 18, 5, 1)
        assert len(net.layers) == 3

    def test_parameter_count(self):
        net = MLP(10, (18, 5), 1)
        expected = (10 * 18 + 18) + (18 * 5 + 5) + (5 * 1 + 1)
        assert net.parameter_count == expected

    def test_hidden_layers_nonlinear_output_linear(self):
        net = MLP(4, (3,), 2, hidden_activation="tanh")
        assert net.layers[0].activation.name == "tanh"
        assert net.layers[1].activation.name == "identity"

    def test_no_hidden_layers(self):
        net = MLP(3, (), 1)
        assert len(net.layers) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MLP(0, (5,), 1)
        with pytest.raises(ValueError):
            MLP(3, (0,), 1)
        with pytest.raises(ValueError):
            MLP(3, (5,), 0)

    def test_seeds_decorrelate_weights(self):
        a = MLP(4, (8,), 1, seed=0)
        b = MLP(4, (8,), 1, seed=1)
        assert not np.allclose(a.layers[0].weights, b.layers[0].weights)

    def test_same_seed_same_weights(self):
        a = MLP(4, (8,), 1, seed=5)
        b = MLP(4, (8,), 1, seed=5)
        assert np.allclose(a.layers[0].weights, b.layers[0].weights)


class TestForwardBackward:
    def test_forward_shape(self):
        net = MLP(6, (4, 3), 2)
        assert net.forward(np.zeros((9, 6))).shape == (9, 2)

    def test_predict_alias(self):
        net = MLP(2, (3,), 1)
        x = np.ones((2, 2))
        assert np.allclose(net.predict(x), net.forward(x))

    def test_end_to_end_gradcheck(self):
        rng = np.random.default_rng(0)
        net = MLP(3, (4,), 1, seed=2)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 1))
        loss = MSELoss()
        _, grads = train_batch(net, x, y, loss)
        analytic = grads[0][0].copy()

        eps = 1e-6
        numeric = np.zeros_like(analytic)
        w = net.layers[0].weights
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                w[i, j] += eps
                up = loss.value(net.forward(x), y)
                w[i, j] -= 2 * eps
                down = loss.value(net.forward(x), y)
                w[i, j] += eps
                numeric[i, j] = (up - down) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_train_batch_returns_loss(self):
        net = MLP(2, (3,), 1)
        x = np.ones((4, 2))
        y = np.zeros((4, 1))
        value, _ = train_batch(net, x, y, MSELoss())
        assert value == pytest.approx(MSELoss().value(net.forward(x), y), rel=1e-6)


class TestWeightIO:
    def test_round_trip(self):
        net = MLP(3, (4,), 1, seed=0)
        saved = net.get_weights()
        x = np.ones((2, 3))
        before = net.forward(x).copy()
        _, grads = train_batch(net, x, np.zeros((2, 1)), MSELoss())
        Adam(0.5).step(net.layers, grads)
        assert not np.allclose(net.forward(x), before)
        net.set_weights(saved)
        assert np.allclose(net.forward(x), before)

    def test_saved_weights_are_copies(self):
        net = MLP(2, (2,), 1)
        saved = net.get_weights()
        saved[0][0][:] = 99.0
        assert not (net.layers[0].weights == 99.0).any()

    def test_set_weights_validates_count(self):
        net = MLP(2, (2,), 1)
        with pytest.raises(ValueError):
            net.set_weights(net.get_weights()[:1])

    def test_set_weights_validates_shapes(self):
        net = MLP(2, (2,), 1)
        other = MLP(2, (3,), 1)
        with pytest.raises(ValueError):
            net.set_weights(other.get_weights())
