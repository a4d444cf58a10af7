"""Best-core (best-cache-size) predictors (paper §IV.C/D).

The paper's predictor is a bagged ensemble of 30 small MLPs trained
offline on profiling counters; at run time the scheduler feeds the
just-profiled application's counters in and receives the best cache
size, which identifies the best core.

These predictors share the :class:`BestCorePredictor` interface:

* :class:`AnnPredictor` — the paper's design: standardised selected
  counters → bagged MLP regression on log2(size) → snap to a legal size.
* :class:`OraclePredictor` — returns the true best size from a
  characterisation store (the upper bound used to measure the ANN's
  <2 % energy-degradation claim and by ablations).
* :class:`FixedPredictor` — always the same size (sanity baselines).

The alternative models of ablation A5 (k-NN, decision tree, random
forest and per-domain predictors, the paper's "different machine
learning techniques" future work and §IV.D's multiple-ANN suggestion)
live with that benchmark, in ``tests/ablation/models.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from repro.ann.bagging import PAPER_ENSEMBLE_SIZE, BaggedRegressor
from repro.ann.network import PAPER_TOPOLOGY
from repro.ann.preprocessing import StandardScaler, log_transform, snap_to_classes
from repro.ann.training import TrainingConfig
from repro.cache.config import CACHE_SIZES_KB
from repro.characterization.dataset import Dataset
from repro.characterization.store import CharacterizationStore
from repro.workloads.counters import ANN_SELECTED_FEATURES, HardwareCounters

__all__ = [
    "BestCorePredictor",
    "AnnPredictor",
    "OraclePredictor",
    "FixedPredictor",
]


class BestCorePredictor(ABC):
    """Maps profiling counters to a predicted best cache size."""

    @abstractmethod
    def predict_size_kb(
        self, benchmark: str, counters: HardwareCounters
    ) -> int:
        """Best cache size (KB) for the profiled application."""


class AnnPredictor(BestCorePredictor):
    """The paper's bagged-ANN predictor.

    The network regresses log2 of the best cache size from standardised,
    feature-selected counters; the continuous output is snapped to the
    nearest legal size.  Regressing in log2 space makes the three classes
    {2, 4, 8} equidistant, so the snap threshold sits at the geometric
    midpoints.
    """

    def __init__(
        self,
        feature_names: Sequence[str] = ANN_SELECTED_FEATURES,
        sizes_kb: Sequence[int] = CACHE_SIZES_KB,
        *,
        n_members: int = PAPER_ENSEMBLE_SIZE,
        hidden: Sequence[int] = PAPER_TOPOLOGY,
        log_features: bool = True,
        seed: int = 0,
    ) -> None:
        if not feature_names:
            raise ValueError("need at least one feature")
        if not sizes_kb:
            raise ValueError("need at least one cache size class")
        self.feature_names = tuple(feature_names)
        self.sizes_kb = tuple(sorted(sizes_kb))
        self._log_sizes = np.log2(np.array(self.sizes_kb, dtype=float))
        #: Counters are heavy-tailed counts; compressing them with log1p
        #: before standardisation makes ratios (e.g. cycles per
        #: instruction) linearly separable for the small MLP.
        self.log_features = log_features
        self.scaler = StandardScaler()
        self.ensemble = BaggedRegressor(
            in_features=len(self.feature_names),
            n_members=n_members,
            hidden=hidden,
            seed=seed,
        )
        self._fitted = False

    def fit(
        self,
        dataset: Dataset,
        *,
        val_dataset: Optional[Dataset] = None,
        config: TrainingConfig = TrainingConfig(),
    ) -> "AnnPredictor":
        """Train on a characterised dataset (features → best size)."""
        if tuple(dataset.feature_names) != self.feature_names:
            raise ValueError(
                "dataset feature names do not match the predictor's: "
                f"{dataset.feature_names} != {self.feature_names}"
            )
        x = self.scaler.fit_transform(self._pre(dataset.features))
        y = np.log2(dataset.labels_kb)[:, None]
        x_val = y_val = None
        if val_dataset is not None and len(val_dataset) > 0:
            x_val = self.scaler.transform(self._pre(val_dataset.features))
            y_val = np.log2(val_dataset.labels_kb)[:, None]
        self.ensemble.fit(x, y, x_val=x_val, y_val=y_val, config=config)
        self._fitted = True
        return self

    def _pre(self, features: np.ndarray) -> np.ndarray:
        if not self.log_features:
            return np.atleast_2d(np.asarray(features, dtype=float))
        return log_transform(np.atleast_2d(np.asarray(features, dtype=float)))

    def predict_sizes_kb(self, features: np.ndarray) -> np.ndarray:
        """Vectorised prediction for a raw feature matrix."""
        if not self._fitted:
            raise RuntimeError("predictor used before fit()")
        x = self.scaler.transform(self._pre(features))
        log_pred = self.ensemble.predict(x)
        snapped = snap_to_classes(log_pred, self._log_sizes)
        return np.power(2.0, snapped).astype(int)

    def predict_size_kb(
        self, benchmark: str, counters: HardwareCounters
    ) -> int:
        vector = counters.as_vector(self.feature_names)
        return int(self.predict_sizes_kb(vector[None, :])[0])


class OraclePredictor(BestCorePredictor):
    """Perfect predictions from a characterisation store."""

    def __init__(self, store: CharacterizationStore) -> None:
        self.store = store

    def predict_size_kb(
        self, benchmark: str, counters: HardwareCounters
    ) -> int:
        return self.store.best_size_kb(benchmark)


class FixedPredictor(BestCorePredictor):
    """Always predicts the same size (degenerate baseline)."""

    def __init__(self, size_kb: int) -> None:
        if size_kb <= 0:
            raise ValueError("size_kb must be positive")
        self.size_kb = size_kb

    def predict_size_kb(
        self, benchmark: str, counters: HardwareCounters
    ) -> int:
        return self.size_kb
