"""Batched-vs-sequential training-engine equivalence (PERF tentpole).

The batched engine's whole contract is that it is *the same training*,
just vectorised: identical bootstrap resamples, identical shuffle RNG
streams, identical Adam arithmetic, identical early stopping.  These
tests pin that contract member by member, across topologies and patience
settings, with bit-exact comparisons wherever the design guarantees them.
"""

import numpy as np
import pytest

from repro.ann.bagging import BaggedRegressor, bootstrap_indices
from repro.ann.batched import train_ensemble_batched
from repro.ann.network import MLP
from repro.ann.training import TrainingConfig, TrainingHistory
from tests.oracles import fit_sequential, train


def make_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = x @ np.array([[0.5], [-0.3], [0.2]]) + 0.05 * rng.normal(size=(n, 1))
    return x, y


def make_val(n=15, seed=9):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = x @ np.array([[0.5], [-0.3], [0.2]])
    return x, y


def fit_both(topology, config, n_members=5, use_val=True, seed=2):
    x, y = make_data()
    x_val, y_val = make_val() if use_val else (None, None)
    sequential = BaggedRegressor(
        in_features=3, n_members=n_members, hidden=topology, seed=seed
    )
    batched = BaggedRegressor(
        in_features=3, n_members=n_members, hidden=topology, seed=seed
    )
    hs = fit_sequential(
        sequential, x, y, x_val=x_val, y_val=y_val, config=config
    )
    hb = batched.fit(x, y, x_val=x_val, y_val=y_val, config=config)
    return sequential, batched, hs, hb, x


class TestBootstrapIndices:
    def test_matches_per_member_rng_stream(self):
        """Each row is exactly default_rng(seed + i).integers(0, n, n)."""
        matrix = bootstrap_indices(seed=7, n_members=4, n=50)
        assert matrix.shape == (4, 50)
        for i in range(4):
            expected = np.random.default_rng(7 + i).integers(0, 50, size=50)
            assert (matrix[i] == expected).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_indices(seed=0, n_members=0, n=10)
        with pytest.raises(ValueError):
            bootstrap_indices(seed=0, n_members=2, n=0)


class TestEngineEquivalence:
    """The headline: both engines produce bit-identical members."""

    @pytest.mark.parametrize("topology", [(4,), (8, 3), (18, 5)])
    def test_identical_predictions_across_topologies(self, topology):
        config = TrainingConfig(epochs=40, seed=0)
        sequential, batched, _, _, x = fit_both(topology, config)
        np.testing.assert_array_equal(
            sequential.member_predictions(x), batched.member_predictions(x)
        )

    @pytest.mark.parametrize("patience", [None, 3, 40])
    def test_identical_early_stopping(self, patience):
        config = TrainingConfig(epochs=50, patience=patience, seed=1)
        _, _, hs, hb, _ = fit_both((6, 3), config)
        assert [h.epochs_run for h in hs] == [h.epochs_run for h in hb]
        assert [h.best_epoch for h in hs] == [h.best_epoch for h in hb]
        assert [h.stopped_early for h in hs] == [
            h.stopped_early for h in hb
        ]

    def test_identical_loss_curves(self):
        config = TrainingConfig(epochs=30, patience=5, seed=0)
        _, _, hs, hb, _ = fit_both((5,), config)
        for a, b in zip(hs, hb):
            assert a.train_loss == b.train_loss
            assert a.val_loss == b.val_loss

    def test_staggered_stopping_keeps_survivors_in_lockstep(self):
        """Members dropping at different epochs must not perturb the rest."""
        config = TrainingConfig(epochs=60, patience=4, seed=3)
        _, _, hs, hb, _ = fit_both((4,), config, n_members=8)
        epochs = [h.epochs_run for h in hb]
        # The seed/patience choice actually staggers the stops — if every
        # member stopped together the test would not exercise compaction.
        assert len(set(epochs)) > 1
        assert epochs == [h.epochs_run for h in hs]

    def test_no_validation_equivalence(self):
        config = TrainingConfig(epochs=25, seed=4)
        sequential, batched, hs, hb, x = fit_both(
            (5, 4), config, use_val=False
        )
        np.testing.assert_array_equal(
            sequential.member_predictions(x), batched.member_predictions(x)
        )
        assert [h.best_epoch for h in hs] == [h.best_epoch for h in hb]

    def test_no_shuffle_equivalence(self):
        config = TrainingConfig(epochs=20, shuffle=False, seed=0)
        sequential, batched, _, _, x = fit_both((6,), config)
        np.testing.assert_array_equal(
            sequential.member_predictions(x), batched.member_predictions(x)
        )

    def test_odd_batch_remainder_equivalence(self):
        """n not divisible by batch_size exercises the short last batch."""
        config = TrainingConfig(epochs=15, batch_size=7, seed=2)
        sequential, batched, _, _, x = fit_both((4,), config)
        np.testing.assert_array_equal(
            sequential.member_predictions(x), batched.member_predictions(x)
        )


class TestDirectEngineApi:
    def test_matches_reference_train_per_member(self):
        """train_ensemble_batched == train() called member by member."""
        x, y = make_data()
        x_val, y_val = make_val()
        config = TrainingConfig(epochs=30, patience=5, seed=6)
        bootstrap = bootstrap_indices(seed=11, n_members=3, n=len(x))

        reference = [MLP(3, (5,), 1, seed=20 + i) for i in range(3)]
        ref_histories = []
        for i, net in enumerate(reference):
            member_config = TrainingConfig(
                epochs=config.epochs,
                batch_size=config.batch_size,
                learning_rate=config.learning_rate,
                patience=config.patience,
                shuffle=config.shuffle,
                seed=config.seed + i,
            )
            ref_histories.append(
                train(
                    net,
                    x[bootstrap[i]],
                    y[bootstrap[i]],
                    x_val=x_val,
                    y_val=y_val,
                    config=member_config,
                )
            )

        stacked = [MLP(3, (5,), 1, seed=20 + i) for i in range(3)]
        histories = train_ensemble_batched(
            stacked,
            x,
            y,
            bootstrap=bootstrap,
            x_val=x_val,
            y_val=y_val,
            config=config,
        )

        for ref, net, ha, hb in zip(
            reference, stacked, ref_histories, histories
        ):
            np.testing.assert_array_equal(ref.forward(x), net.forward(x))
            assert ha.train_loss == hb.train_loss
            assert ha.val_loss == hb.val_loss
            assert ha.best_epoch == hb.best_epoch
            assert ha.stopped_early == hb.stopped_early

    def test_returns_one_history_per_member(self):
        x, y = make_data()
        members = [MLP(3, (4,), 1, seed=i) for i in range(4)]
        histories = train_ensemble_batched(
            members, x, y, config=TrainingConfig(epochs=3, seed=0)
        )
        assert len(histories) == 4
        assert all(isinstance(h, TrainingHistory) for h in histories)

    def test_heterogeneous_topologies_rejected(self):
        x, y = make_data()
        members = [MLP(3, (4,), 1, seed=0), MLP(3, (5,), 1, seed=1)]
        with pytest.raises(ValueError):
            train_ensemble_batched(members, x, y)

    def test_heterogeneous_activations_rejected(self):
        x, y = make_data()
        members = [
            MLP(3, (4,), 1, hidden_activation="tanh", seed=0),
            MLP(3, (4,), 1, hidden_activation="relu", seed=1),
        ]
        with pytest.raises(ValueError):
            train_ensemble_batched(members, x, y)

    def test_shape_validation(self):
        x, y = make_data()
        members = [MLP(3, (4,), 1, seed=0)]
        with pytest.raises(ValueError):
            train_ensemble_batched(members, x, y[:-1])
        with pytest.raises(ValueError):
            train_ensemble_batched(
                members, x, y, bootstrap=np.zeros((2, len(x)), dtype=int)
            )
        with pytest.raises(ValueError):
            train_ensemble_batched(members, x, y, seeds=[0, 1])
        with pytest.raises(ValueError):
            train_ensemble_batched([], x, y)
        with pytest.raises(ValueError):
            train_ensemble_batched(
                members, np.zeros((0, 3)), np.zeros((0, 1))
            )

