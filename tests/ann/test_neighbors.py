"""Tests for the k-NN regressor."""

import numpy as np
import pytest

from tests.ablation.models import KNNRegressor


def grid_data():
    x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    return x, y


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            KNNRegressor(k=0)
        with pytest.raises(ValueError):
            KNNRegressor(weights="triangular")

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            KNNRegressor().predict(np.zeros((1, 2)))

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            KNNRegressor().fit(np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(ValueError):
            KNNRegressor().fit(np.zeros((0, 1)), np.zeros(0))

    def test_n_samples(self):
        knn = KNNRegressor()
        assert knn.n_samples == 0
        knn.fit(*grid_data())
        assert knn.n_samples == 5


class TestPrediction:
    def test_one_nn_exact_recall(self):
        x, y = grid_data()
        knn = KNNRegressor(k=1).fit(x, y)
        assert np.allclose(knn.predict(x), y)

    def test_distance_weighting_dominated_by_exact_match(self):
        x, y = grid_data()
        knn = KNNRegressor(k=3, weights="distance").fit(x, y)
        assert knn.predict(np.array([[2.0]]))[0] == pytest.approx(2.0)

    def test_uniform_weighting_averages(self):
        x, y = grid_data()
        knn = KNNRegressor(k=5, weights="uniform").fit(x, y)
        assert knn.predict(np.array([[2.0]]))[0] == pytest.approx(2.0)

    def test_interpolates_between_points(self):
        x, y = grid_data()
        knn = KNNRegressor(k=2, weights="distance").fit(x, y)
        pred = knn.predict(np.array([[1.5]]))[0]
        assert 1.0 < pred < 2.0

    def test_k_clamped_to_dataset(self):
        x, y = grid_data()
        knn = KNNRegressor(k=50, weights="uniform").fit(x, y)
        assert knn.predict(np.array([[0.0]]))[0] == pytest.approx(y.mean())

    def test_feature_width_checked(self):
        knn = KNNRegressor().fit(*grid_data())
        with pytest.raises(ValueError):
            knn.predict(np.zeros((1, 3)))

    def test_multidimensional(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        y = x @ np.array([1.0, -0.5, 0.25])
        knn = KNNRegressor(k=5).fit(x, y)
        pred = knn.predict(x)
        assert np.corrcoef(pred, y)[0, 1] > 0.95

    def test_batch_prediction_shape(self):
        knn = KNNRegressor().fit(*grid_data())
        assert knn.predict(np.zeros((7, 1))).shape == (7,)
