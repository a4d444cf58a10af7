"""Tests for the training loop and early stopping."""

import numpy as np
import pytest

from repro.ann.network import MLP
from repro.ann.training import TrainingConfig, TrainingHistory
from tests.oracles import MSELoss, train


def make_data(n=64, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (0.5 * x[:, :1] - 0.25 * x[:, 1:]) + 0.01 * rng.normal(size=(n, 1))
    return x, y


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"patience": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestTrain:
    def test_loss_decreases(self):
        x, y = make_data()
        net = MLP(2, (8,), 1, seed=0)
        history = train(net, x, y, config=TrainingConfig(epochs=100, seed=0))
        assert history.train_loss[-1] < history.train_loss[0] / 5

    def test_history_lengths(self):
        x, y = make_data()
        net = MLP(2, (4,), 1, seed=0)
        history = train(
            net, x, y, x_val=x[:10], y_val=y[:10],
            config=TrainingConfig(epochs=20, patience=None, seed=0),
        )
        assert history.epochs_run == 20
        assert len(history.val_loss) == 20

    def test_early_stopping_triggers(self):
        x, y = make_data()
        x_val, y_val = make_data(n=16, seed=9)
        net = MLP(2, (8,), 1, seed=0)
        history = train(
            net, x, y, x_val=x_val, y_val=y_val,
            config=TrainingConfig(epochs=2000, patience=10, seed=0),
        )
        assert history.stopped_early
        assert history.epochs_run < 2000
        assert history.best_epoch <= history.epochs_run

    def test_best_weights_restored(self):
        x, y = make_data()
        x_val, y_val = make_data(n=16, seed=5)
        net = MLP(2, (8,), 1, seed=1)
        history = train(
            net, x, y, x_val=x_val, y_val=y_val,
            config=TrainingConfig(epochs=300, patience=25, seed=1),
        )
        final_val = MSELoss().value(net.forward(x_val), y_val)
        assert final_val == pytest.approx(min(history.val_loss), rel=1e-9)

    def test_no_validation_keeps_final_weights(self):
        x, y = make_data()
        net = MLP(2, (4,), 1, seed=0)
        history = train(net, x, y, config=TrainingConfig(epochs=10, seed=0))
        assert history.best_epoch == 9
        assert not history.val_loss

    def test_deterministic(self):
        x, y = make_data()
        a = MLP(2, (4,), 1, seed=3)
        b = MLP(2, (4,), 1, seed=3)
        train(a, x, y, config=TrainingConfig(epochs=15, seed=3))
        train(b, x, y, config=TrainingConfig(epochs=15, seed=3))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_no_shuffle_option(self):
        x, y = make_data()
        net = MLP(2, (4,), 1, seed=0)
        history = train(
            net, x, y, config=TrainingConfig(epochs=5, shuffle=False, seed=0)
        )
        assert history.epochs_run == 5

    def test_row_count_mismatch_rejected(self):
        x, y = make_data()
        net = MLP(2, (4,), 1)
        with pytest.raises(ValueError):
            train(net, x, y[:-1])
        with pytest.raises(ValueError):
            train(net, x, y, x_val=x[:5], y_val=y[:4])
