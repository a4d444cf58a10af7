"""Alternative best-core predictors for ablation A5.

The paper's future work (§VIII) proposes "evaluating different machine
learning techniques", and §IV.D suggests "multiple ANNs each of which
would be specialized for a different domain".  The A5 benchmark
(``benchmarks/test_bench_ablation_ml_models.py``) compares the paper's
bagged ANN (:class:`repro.core.predictor.AnnPredictor`) against these
from-scratch alternatives through the identical feature pipeline:

* :class:`KNNRegressor` — k-nearest-neighbour regression.  The paper's
  related work (Chen et al.) schedules by Euclidean distance in a
  feature space, which is exactly 1-NN.
* :class:`DecisionTreeRegressor` — a binary regression tree with
  variance-reduction splits, and :class:`RandomForestRegressor`, a
  bagged forest of them reusing the MLP ensemble's bootstrap scheme.
* :class:`RegressorPredictor` — the :class:`AnnPredictor` pipeline over
  any of the regressors above.
* :class:`DomainPredictor` — one specialised predictor per application
  domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.ann.preprocessing import StandardScaler, log_transform, snap_to_classes
from repro.ann.training import TrainingConfig
from repro.cache.config import CACHE_SIZES_KB
from repro.characterization.dataset import Dataset
from repro.core.predictor import AnnPredictor, BestCorePredictor
from repro.workloads.counters import ANN_SELECTED_FEATURES, HardwareCounters

__all__ = [
    "KNNRegressor",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "RegressorPredictor",
    "DomainPredictor",
]


class KNNRegressor:
    """Distance-weighted k-nearest-neighbour regression.

    Parameters
    ----------
    k:
        Neighbour count.
    weights:
        ``"uniform"`` averages the k neighbours; ``"distance"`` weights
        each by inverse distance (an exact-match neighbour dominates).
    """

    def __init__(self, k: int = 5, weights: str = "distance") -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if weights not in ("uniform", "distance"):
            raise ValueError(f"unknown weighting {weights!r}")
        self.k = k
        self.weights = weights
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNNRegressor":
        """Memorise the training set."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y row counts differ")
        if x.shape[0] == 0:
            raise ValueError("empty training set")
        self._x = x
        self._y = y
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for a query matrix, shape ``(n,)``."""
        if self._x is None:
            raise RuntimeError("predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self._x.shape[1]:
            raise ValueError(
                f"expected {self._x.shape[1]} features, got {x.shape[1]}"
            )
        k = min(self.k, self._x.shape[0])
        # Squared Euclidean distances, vectorised: (n_query, n_train).
        d2 = (
            (x * x).sum(axis=1)[:, None]
            - 2.0 * x @ self._x.T
            + (self._x * self._x).sum(axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        neighbour_idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(x.shape[0])[:, None]
        neighbour_d = np.sqrt(d2[rows, neighbour_idx])
        neighbour_y = self._y[neighbour_idx]
        if self.weights == "uniform":
            return neighbour_y.mean(axis=1)
        w = 1.0 / (neighbour_d + 1e-12)
        return (neighbour_y * w).sum(axis=1) / w.sum(axis=1)

    @property
    def n_samples(self) -> int:
        """Size of the memorised training set (0 before fit)."""
        return 0 if self._x is None else self._x.shape[0]


@dataclass
class _Node:
    """One tree node; leaves have ``feature is None``."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTreeRegressor:
    """Binary regression tree minimising within-leaf variance.

    Parameters
    ----------
    max_depth:
        Depth bound (a root-only tree has depth 0).
    min_samples_leaf:
        A split is rejected if either side would fall below this.
    """

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 2) -> None:
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._root: Optional[_Node] = None
        self._n_features = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on the training data."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y row counts differ")
        if x.shape[0] == 0:
            raise ValueError("empty training set")
        self._n_features = x.shape[1]
        self._root = self._grow(x, y, depth=0)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        if np.allclose(y, y[0]):
            return node
        feature, threshold = self._best_split(x, y)
        if feature is None:
            return node
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(x[mask], y[mask], depth + 1)
        node.right = self._grow(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x: np.ndarray, y: np.ndarray):
        """Exhaustive variance-reduction split search."""
        n = len(y)
        best_score = np.inf
        best = (None, 0.0)
        for feature in range(x.shape[1]):
            order = np.argsort(x[:, feature], kind="stable")
            xs = x[order, feature]
            ys = y[order]
            # Prefix sums give left/right SSE in O(n) per feature:
            # SSE = sum(y^2) - (sum(y))^2 / n.
            csum = np.cumsum(ys)
            csum2 = np.cumsum(ys * ys)
            total = csum[-1]
            total2 = csum2[-1]
            for i in range(self.min_samples_leaf - 1,
                           n - self.min_samples_leaf):
                if xs[i] == xs[i + 1]:
                    continue  # cannot split between equal values
                n_left = i + 1
                n_right = n - n_left
                sse_left = csum2[i] - csum[i] ** 2 / n_left
                sse_right = (total2 - csum2[i]) - (total - csum[i]) ** 2 / n_right
                score = sse_left + sse_right
                if score < best_score:
                    best_score = score
                    best = (feature, float((xs[i] + xs[i + 1]) / 2.0))
        return best

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for a query matrix, shape ``(n,)``."""
        if self._root is None:
            raise RuntimeError("predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self._n_features:
            raise ValueError(
                f"expected {self._n_features} features, got {x.shape[1]}"
            )
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    @property
    def depth(self) -> int:
        """Actual depth of the grown tree (0 = root only)."""
        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            return 0
        return walk(self._root)

    @property
    def leaf_count(self) -> int:
        """Number of leaves."""
        def walk(node: Optional[_Node]) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self._root)


class RandomForestRegressor:
    """Bagged trees with per-tree bootstrap resamples."""

    def __init__(
        self,
        n_trees: int = 20,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ) -> None:
        if n_trees <= 0:
            raise ValueError("n_trees must be positive")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.trees: List[DecisionTreeRegressor] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit every tree on its own bootstrap resample."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] == 0:
            raise ValueError("empty training set")
        self.trees = []
        n = x.shape[0]
        for i in range(self.n_trees):
            rng = np.random.default_rng(self.seed + i)
            idx = rng.integers(0, n, size=n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            )
            tree.fit(x[idx], y[idx])
            self.trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Mean of tree predictions."""
        if not self.trees:
            raise RuntimeError("predict() called before fit()")
        return np.mean([tree.predict(x) for tree in self.trees], axis=0)


class RegressorPredictor(BestCorePredictor):
    """Best-core prediction through any fit/predict regressor.

    The paper's future work proposes "evaluating different machine
    learning techniques"; this adapter runs the same pipeline as
    :class:`AnnPredictor` (log-compress → standardise → regress log2
    size → snap) over any regressor with ``fit(x, y)`` and
    ``predict(x)`` — e.g. :class:`KNNRegressor` or
    :class:`DecisionTreeRegressor`.
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
