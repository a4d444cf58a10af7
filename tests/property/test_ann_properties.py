"""Property-based tests for the ANN substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.ann.activations import make_activation, ACTIVATION_NAMES
from repro.ann.bagging import BaggedRegressor
from repro.ann.network import MLP
from repro.ann.preprocessing import StandardScaler, snap_to_classes
from repro.ann.training import TrainingConfig
from tests.oracles import fit_sequential

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestActivationProperties:
    @given(
        name=st.sampled_from(ACTIVATION_NAMES),
        x=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                 elements=finite_floats),
    )
    @settings(max_examples=50, deadline=None)
    def test_shape_preserved(self, name, x):
        act = make_activation(name)
        assert act.forward(x).shape == x.shape
        assert act.backward(x, np.ones_like(x)).shape == x.shape

    @given(
        x=arrays(np.float64, st.integers(1, 20), elements=finite_floats),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_activations(self, x):
        """tanh/sigmoid/relu are nondecreasing."""
        ordered = np.sort(x)
        for name in ("tanh", "sigmoid", "relu"):
            y = make_activation(name).forward(ordered)
            assert (np.diff(y) >= -1e-12).all()


class TestScalerProperties:
    @given(
        x=arrays(
            np.float64,
            st.tuples(st.integers(2, 30), st.integers(1, 6)),
            elements=st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, x):
        scaler = StandardScaler()
        z = scaler.fit_transform(x)
        back = scaler.inverse_transform(z)
        assert np.allclose(back, x, atol=1e-6 * (1 + np.abs(x).max()))

    @given(
        x=arrays(
            np.float64,
            st.tuples(st.integers(2, 30), st.integers(1, 6)),
            elements=st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_output_finite(self, x):
        z = StandardScaler().fit_transform(x)
        assert np.isfinite(z).all()


class TestSnapProperties:
    @given(
        values=arrays(np.float64, st.integers(1, 30), elements=finite_floats),
        classes=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1, max_size=6, unique=True,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_snap_returns_legal_class(self, values, classes):
        snapped = snap_to_classes(values, classes)
        legal = set(classes)
        assert all(v in legal for v in snapped)

    @given(
        values=arrays(np.float64, st.integers(1, 30), elements=finite_floats),
        classes=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1, max_size=6, unique=True,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_snap_idempotent(self, values, classes):
        once = snap_to_classes(values, classes)
        assert (snap_to_classes(once, classes) == once).all()

    @given(
        values=arrays(np.float64, st.integers(1, 30), elements=finite_floats),
        classes=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1, max_size=6, unique=True,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_snap_is_nearest(self, values, classes):
        snapped = snap_to_classes(values, classes)
        for value, choice in zip(values, snapped):
            best = min(abs(value - c) for c in classes)
            assert abs(value - choice) <= best + 1e-9


class TestNetworkProperties:
    @given(
        seed=st.integers(0, 1000),
        batch=st.integers(1, 8),
        in_features=st.integers(1, 6),
        hidden=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_forward_finite_on_bounded_input(self, seed, batch, in_features,
                                             hidden):
        net = MLP(in_features, (hidden,), 1, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10, 10, size=(batch, in_features))
        out = net.forward(x)
        assert out.shape == (batch, 1)
        assert np.isfinite(out).all()

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_weight_round_trip_exact(self, seed):
        net = MLP(3, (5,), 1, seed=seed)
        saved = net.get_weights()
        x = np.ones((2, 3))
        before = net.forward(x)
        net.set_weights(saved)
        assert (net.forward(x) == before).all()


class TestTrainingEngineProperties:
    """The batched engine is the sequential loop, vectorised."""

    @given(
        seed=st.integers(0, 200),
        n_members=st.integers(1, 4),
        hidden=st.integers(2, 8),
        patience=st.one_of(st.none(), st.integers(2, 10)),
        batch_size=st.integers(4, 20),
    )
    @settings(max_examples=15, deadline=None)
    def test_engines_produce_identical_members(
        self, seed, n_members, hidden, patience, batch_size
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 3))
        y = x @ np.array([[0.4], [-0.2], [0.1]])
        x_val = rng.normal(size=(8, 3))
        y_val = x_val @ np.array([[0.4], [-0.2], [0.1]])
        config = TrainingConfig(
            epochs=12, batch_size=batch_size, patience=patience, seed=seed
        )
        a = BaggedRegressor(
            in_features=3, n_members=n_members, hidden=(hidden,), seed=seed
        )
        b = BaggedRegressor(
            in_features=3, n_members=n_members, hidden=(hidden,), seed=seed
        )
        ha = fit_sequential(a, x, y, x_val=x_val, y_val=y_val,
                            config=config)
        hb = b.fit(x, y, x_val=x_val, y_val=y_val, config=config)
        assert [h.epochs_run for h in ha] == [h.epochs_run for h in hb]
        assert (a.member_predictions(x) == b.member_predictions(x)).all()
