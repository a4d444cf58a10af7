"""Best-core (best-cache-size) predictors (paper §IV.C/D).

The paper's predictor is a bagged ensemble of 30 small MLPs trained
offline on profiling counters; at run time the scheduler feeds the
just-profiled application's counters in and receives the best cache
size, which identifies the best core.

These predictors share the :class:`BestCorePredictor` interface:

* :class:`AnnPredictor` — the paper's design: standardised selected
  counters → bagged MLP regression on log2(size) → snap to a legal size.
* :class:`RegressorPredictor` — the same pipeline over any fit/predict
  regressor (k-NN, decision tree, random forest), implementing the
  paper's "different machine learning techniques" future work.
* :class:`DomainPredictor` — one specialised predictor per application
  domain (§IV.D's multiple-ANN suggestion).
* :class:`OraclePredictor` — returns the true best size from a
  characterisation store (the upper bound used to measure the ANN's
  <2 % energy-degradation claim and by ablations).
* :class:`FixedPredictor` — always the same size (sanity baselines).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

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
    "RegressorPredictor",
    "DomainPredictor",
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


class RegressorPredictor(BestCorePredictor):
    """Best-core prediction through any fit/predict regressor.

    The paper's future work proposes "evaluating different machine
    learning techniques"; this adapter runs the same pipeline as
    :class:`AnnPredictor` (log-compress → standardise → regress log2
    size → snap) over any regressor with ``fit(x, y)`` and
    ``predict(x)`` — e.g. :class:`repro.ann.neighbors.KNNRegressor` or
    :class:`repro.ann.tree.DecisionTreeRegressor`.
    """

    def __init__(
        self,
        regressor,
        feature_names: Sequence[str] = ANN_SELECTED_FEATURES,
        sizes_kb: Sequence[int] = CACHE_SIZES_KB,
        *,
        log_features: bool = True,
    ) -> None:
        if not feature_names:
            raise ValueError("need at least one feature")
        if not sizes_kb:
            raise ValueError("need at least one cache size class")
        self.regressor = regressor
        self.feature_names = tuple(feature_names)
        self.sizes_kb = tuple(sorted(sizes_kb))
        self._log_sizes = np.log2(np.array(self.sizes_kb, dtype=float))
        self.log_features = log_features
        self.scaler = StandardScaler()
        self._fitted = False

    def _pre(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if not self.log_features:
            return features
        return log_transform(features)

    def fit(self, dataset: Dataset) -> "RegressorPredictor":
        """Train the wrapped regressor on a characterised dataset."""
        if tuple(dataset.feature_names) != self.feature_names:
            raise ValueError(
                "dataset feature names do not match the predictor's: "
                f"{dataset.feature_names} != {self.feature_names}"
            )
        x = self.scaler.fit_transform(self._pre(dataset.features))
        y = np.log2(dataset.labels_kb)
        self.regressor.fit(x, y)
        self._fitted = True
        return self

    def predict_sizes_kb(self, features: np.ndarray) -> np.ndarray:
        """Vectorised prediction for a raw feature matrix."""
        if not self._fitted:
            raise RuntimeError("predictor used before fit()")
        x = self.scaler.transform(self._pre(features))
        log_pred = np.asarray(self.regressor.predict(x), dtype=float).ravel()
        snapped = snap_to_classes(log_pred, self._log_sizes)
        return np.power(2.0, snapped).astype(int)

    def predict_size_kb(
        self, benchmark: str, counters: HardwareCounters
    ) -> int:
        vector = counters.as_vector(self.feature_names)
        return int(self.predict_sizes_kb(vector[None, :])[0])


class DomainPredictor(BestCorePredictor):
    """One specialised predictor per application domain (§IV.D).

    "For diverse systems executing different application domains, the
    scheduler could have multiple ANNs each of which would be
    specialized for a different domain."  This predictor trains one
    sub-predictor per domain on that domain's samples only and routes
    each profiled application to its domain's model (the domain is
    application metadata, known when the application is installed).

    Parameters
    ----------
    domains:
        Mapping of benchmark *family* → domain label.  Variant names
        like ``a2time.v3`` resolve through their family prefix.
    make_predictor:
        Factory creating one trainable predictor (e.g. an
        :class:`AnnPredictor`) per domain; called with the domain index
        for seed decorrelation.
    """

    def __init__(
        self,
        domains,
        make_predictor=None,
    ) -> None:
        if not domains:
            raise ValueError("need a non-empty family -> domain mapping")
        self.domains = dict(domains)
        if make_predictor is None:
            def make_predictor(index: int) -> AnnPredictor:
                return AnnPredictor(n_members=10, seed=index)
        self._make_predictor = make_predictor
        self.by_domain: dict = {}
        self._fitted = False

    def _family(self, benchmark: str) -> str:
        return benchmark.split(".")[0]

    def _domain(self, benchmark: str) -> str:
        family = self._family(benchmark)
        try:
            return self.domains[family]
        except KeyError:
            raise KeyError(
                f"benchmark family {family!r} has no domain assignment"
            ) from None

    def fit(
        self,
        dataset: Dataset,
        *,
        config: "TrainingConfig" = None,
    ) -> "DomainPredictor":
        """Train one sub-predictor per domain on its rows only."""
        from repro.ann.training import TrainingConfig as _TrainingConfig

        training = config if config is not None else _TrainingConfig()
        rows_by_domain: dict = {}
        for index, family in enumerate(dataset.families):
            domain = self.domains.get(family)
            if domain is None:
                raise KeyError(
                    f"dataset family {family!r} has no domain assignment"
                )
            rows_by_domain.setdefault(domain, []).append(index)
        import inspect

        for i, (domain, rows) in enumerate(sorted(rows_by_domain.items())):
            sub = self._make_predictor(i)
            sub_dataset = dataset.take(rows)
            if "config" in inspect.signature(sub.fit).parameters:
                sub.fit(sub_dataset, config=training)
            else:  # e.g. RegressorPredictor
                sub.fit(sub_dataset)
            self.by_domain[domain] = sub
        self._fitted = True
        return self

    def predict_size_kb(
        self, benchmark: str, counters: HardwareCounters
    ) -> int:
        if not self._fitted:
            raise RuntimeError("predictor used before fit()")
        domain = self._domain(benchmark)
        sub = self.by_domain.get(domain)
        if sub is None:
            raise KeyError(
                f"no predictor trained for domain {domain!r}"
            )
        return sub.predict_size_kb(benchmark, counters)


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
