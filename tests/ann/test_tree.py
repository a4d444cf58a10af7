"""Tests for the CART regression tree and random forest."""

import numpy as np
import pytest

from tests.ablation.models import DecisionTreeRegressor, RandomForestRegressor


def step_data():
    """y jumps at x = 0.5: the easiest split to find."""
    x = np.linspace(0, 1, 40)[:, None]
    y = (x.ravel() > 0.5).astype(float) * 10.0
    return x, y


class TestDecisionTree:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=-1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((2, 1)), np.zeros(3))

    def test_depth_zero_is_mean(self):
        x, y = step_data()
        tree = DecisionTreeRegressor(max_depth=0).fit(x, y)
        assert tree.predict(x)[0] == pytest.approx(y.mean())
        assert tree.depth == 0
        assert tree.leaf_count == 1

    def test_finds_step_split(self):
        x, y = step_data()
        tree = DecisionTreeRegressor(max_depth=1).fit(x, y)
        pred = tree.predict(x)
        assert np.allclose(pred, y)
        assert tree.depth == 1
        assert tree.leaf_count == 2

    def test_constant_target_stays_leaf(self):
        x = np.arange(10)[:, None].astype(float)
        tree = DecisionTreeRegressor().fit(x, np.full(10, 3.0))
        assert tree.leaf_count == 1
        assert tree.predict(x)[0] == 3.0

    def test_min_samples_leaf_respected(self):
        x, y = step_data()
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=10).fit(x, y)
        # 40 samples with >=10 per leaf: at most 4 leaves.
        assert tree.leaf_count <= 4

    def test_piecewise_fit_quality(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(200, 2))
        y = np.where(x[:, 0] > 0, 5.0, -5.0) + np.where(x[:, 1] > 1, 2.0, 0.0)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        pred = tree.predict(x)
        assert np.mean((pred - y) ** 2) < 0.5

    def test_feature_width_checked(self):
        x, y = step_data()
        tree = DecisionTreeRegressor().fit(x, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((1, 4)))

    def test_no_split_between_equal_values(self):
        x = np.zeros((10, 1))
        y = np.arange(10.0)
        tree = DecisionTreeRegressor().fit(x, y)
        # All x identical: no valid split, root predicts the mean.
        assert tree.leaf_count == 1


class TestRandomForest:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_trees=0)
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            RandomForestRegressor().fit(np.zeros((0, 1)), np.zeros(0))

    def test_fits_step(self):
        x, y = step_data()
        forest = RandomForestRegressor(n_trees=10, max_depth=3, seed=0).fit(x, y)
        pred = forest.predict(x)
        assert np.mean((pred - y) ** 2) < 1.0

    def test_deterministic(self):
        x, y = step_data()
        a = RandomForestRegressor(n_trees=5, seed=1).fit(x, y)
        b = RandomForestRegressor(n_trees=5, seed=1).fit(x, y)
        assert np.allclose(a.predict(x), b.predict(x))

    def test_trees_differ(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 2))
        y = x[:, 0] * 3 + rng.normal(size=60)
        forest = RandomForestRegressor(n_trees=5, seed=0).fit(x, y)
        preds = np.stack([t.predict(x) for t in forest.trees])
        assert preds.std(axis=0).max() > 0.0
