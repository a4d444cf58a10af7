"""Bagged ensemble of MLP regressors.

Paper §IV.D: "We used bagging to improve the ANN's accuracy and
generalization, which trains several different ANNs using a subset of the
input data and averages the ANNs' outputs to determine the final
prediction.  We trained 30 ANNs and initialized the model weights
randomly."

:class:`BaggedRegressor` reproduces exactly that: each member trains on a
bootstrap resample of the training set with its own weight-initialisation
seed, and prediction is the mean of the member outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .batched import train_ensemble_batched
from .network import MLP, PAPER_TOPOLOGY
from .training import TrainingConfig, TrainingHistory

__all__ = ["BaggedRegressor", "PAPER_ENSEMBLE_SIZE", "bootstrap_indices"]

#: The paper trained 30 ANNs.
PAPER_ENSEMBLE_SIZE = 30


def bootstrap_indices(seed: int, n_members: int, n: int) -> np.ndarray:
    """Per-member bootstrap resample matrix, shape ``(n_members, n)``.

    Member ``i`` draws its resample from ``default_rng(seed + i)`` —
    the single source of bootstrap randomness, shared with the
    per-member reference trainer in ``tests/oracles.py`` so both see
    identical data.
    """
    if n_members <= 0:
        raise ValueError("n_members must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    return np.stack(
        [
            np.random.default_rng(seed + i).integers(0, n, size=n)
            for i in range(n_members)
        ]
    )


@dataclass
class BaggedRegressor:
    """Bootstrap-aggregated MLP ensemble.

    Parameters
    ----------
    in_features:
        Input feature width.
    n_members:
        Ensemble size (the paper used 30).
    hidden:
        Hidden topology of every member (the paper's {18, 5}).
    hidden_activation:
        Hidden nonlinearity name.
    seed:
        Root seed; member ``i`` uses ``seed + i`` for both its bootstrap
        resample and its random weight initialisation.
    """

    in_features: int
    n_members: int = PAPER_ENSEMBLE_SIZE
    hidden: Sequence[int] = PAPER_TOPOLOGY
    hidden_activation: str = "tanh"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.in_features <= 0:
            raise ValueError("in_features must be positive")
        if self.n_members <= 0:
            raise ValueError("n_members must be positive")
        self.members: List[MLP] = [
            MLP(
                self.in_features,
                self.hidden,
                1,
                hidden_activation=self.hidden_activation,
                seed=self.seed + i,
            )
            for i in range(self.n_members)
        ]
        self._trained = False

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        *,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        config: TrainingConfig = TrainingConfig(),
    ) -> List[TrainingHistory]:
        """Train every member on its own bootstrap resample.

        All members train in one stacked pass
        (:func:`~repro.ann.batched.train_ensemble_batched`).
        """
        x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
        y_train = np.asarray(y_train, dtype=float)
        if y_train.ndim == 1:
            y_train = y_train[:, None]
        n = x_train.shape[0]
        if n == 0:
            raise ValueError("empty training set")
        histories = train_ensemble_batched(
            self.members,
            x_train,
            y_train,
            bootstrap=bootstrap_indices(self.seed, self.n_members, n),
            x_val=x_val,
            y_val=y_val,
            config=config,
            seeds=[config.seed + i for i in range(self.n_members)],
        )
        self._trained = True
        return histories

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Mean of member predictions, shape ``(n,)``."""
        if not self._trained:
            raise RuntimeError("predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        total = np.zeros((x.shape[0], 1))
        for member in self.members:
            total += member.forward(x)
        return (total / self.n_members).ravel()

    def member_predictions(self, x: np.ndarray) -> np.ndarray:
        """Per-member predictions, shape ``(n_members, n)``."""
        if not self._trained:
            raise RuntimeError("member_predictions() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.stack([m.forward(x).ravel() for m in self.members])

    def prediction_std(self, x: np.ndarray) -> np.ndarray:
        """Ensemble disagreement (std of member outputs) per sample."""
        return self.member_predictions(x).std(axis=0)
