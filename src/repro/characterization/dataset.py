"""ANN training-dataset construction.

The paper trains on "270 total inputs — 18 different cache-relevant
execution statistics for each of the 15 benchmarks", split 70/15/15.
Fifteen samples cannot meaningfully train a network, so (documented
substitution, DESIGN.md §5) the builder grows the suite with seeded
parameter-jittered *variants* of each benchmark family.  The paper's own
justification applies: "applications from similar application domains
have similar execution statistics" — the variants are the other members
of each benchmark's domain.

Each sample is (feature vector from the base-configuration profiling
counters) → (label: best cache size, the cache size of the benchmark's
true lowest-energy configuration).  Splitting is *family-aware*: all
variants of a family land in the same split so the test-set score
measures generalisation to unseen programs, not leakage between near
-identical variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import DESIGN_SPACE, CacheConfig
from repro.energy.model import EnergyModel
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.counters import ANN_SELECTED_FEATURES

from .explorer import characterize_benchmark
from .store import CharacterizationStore

__all__ = ["Dataset", "DatasetSplit", "build_dataset", "expand_suite"]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, labels and provenance for ANN training.

    Attributes
    ----------
    features:
        ``(n_samples, n_features)`` float matrix of raw counter values.
    labels_kb:
        Best cache size in KB for each sample.
    names:
        Benchmark (variant) name per sample.
    families:
        Family name per sample (for family-aware splitting).
    feature_names:
        Counter names, column order of ``features``.
    """

    features: np.ndarray
    labels_kb: np.ndarray
    names: Tuple[str, ...]
    families: Tuple[str, ...]
    feature_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        if not (len(self.labels_kb) == len(self.names) == len(self.families) == n):
            raise ValueError("dataset arrays have inconsistent lengths")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError("feature matrix width != number of feature names")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices: Sequence[int]) -> "Dataset":
        """Row subset preserving all provenance."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            features=self.features[idx],
            labels_kb=self.labels_kb[idx],
            names=tuple(self.names[i] for i in idx),
            families=tuple(self.families[i] for i in idx),
            feature_names=self.feature_names,
        )

    def split(
        self,
        train: float = 0.70,
        val: float = 0.15,
        seed: int = 0,
        by_family: bool = True,
    ) -> "DatasetSplit":
        """70/15/15 split (paper §IV.D), family-aware by default."""
        if train <= 0 or val < 0 or train + val >= 1.0:
            raise ValueError("fractions must satisfy 0 < train, train+val < 1")
        rng = np.random.default_rng(seed)
        if by_family:
            families = sorted(set(self.families))
            rng.shuffle(families)
            n_train = max(1, int(round(len(families) * train)))
            n_val = max(1, int(round(len(families) * val)))
            train_fams = set(families[:n_train])
            val_fams = set(families[n_train : n_train + n_val])
            groups = {"train": [], "val": [], "test": []}
            for i, family in enumerate(self.families):
                if family in train_fams:
                    groups["train"].append(i)
                elif family in val_fams:
                    groups["val"].append(i)
                else:
                    groups["test"].append(i)
        else:
            order = rng.permutation(len(self))
            n_train = int(round(len(self) * train))
            n_val = int(round(len(self) * val))
            groups = {
                "train": order[:n_train].tolist(),
                "val": order[n_train : n_train + n_val].tolist(),
                "test": order[n_train + n_val :].tolist(),
            }
        return DatasetSplit(
            train=self.take(groups["train"]),
            val=self.take(groups["val"]),
            test=self.take(groups["test"]),
        )


@dataclass(frozen=True)
class DatasetSplit:
    """Train/validation/test partition of a :class:`Dataset`."""

    train: Dataset
    val: Dataset
    test: Dataset


def expand_suite(
    specs: Sequence[BenchmarkSpec],
    variants_per_family: int = 12,
    *,
    jitter: float = 0.25,
) -> List[BenchmarkSpec]:
    """Grow a suite with jittered variants (variant 0 = the original)."""
    if variants_per_family < 1:
        raise ValueError("variants_per_family must be at least 1")
    expanded: List[BenchmarkSpec] = []
    for spec in specs:
        for index in range(variants_per_family):
            expanded.append(spec.variant(index, jitter=jitter))
    return expanded


def build_dataset(
    specs: Sequence[BenchmarkSpec],
    *,
    variants_per_family: int = 12,
    configs: Sequence[CacheConfig] = DESIGN_SPACE,
    energy_model: Optional[EnergyModel] = None,
    feature_names: Sequence[str] = ANN_SELECTED_FEATURES,
    jitter: float = 0.25,
    seed: int = 0,
    store: Optional[CharacterizationStore] = None,
) -> Tuple[Dataset, CharacterizationStore]:
    """Characterise a (possibly expanded) suite into an ANN dataset.

    Returns the dataset and the characterisation store backing it (so
    callers can reuse or persist the expensive measurements).  If
    ``store`` is given, benchmarks already present are not re-simulated.
    One energy model serves every benchmark, so its per-configuration
    CACTI figures are computed once.
    """
    model = energy_model if energy_model is not None else EnergyModel()
    expanded = expand_suite(specs, variants_per_family, jitter=jitter)
    out_store = store if store is not None else CharacterizationStore()

    families: List[str] = []
    names: List[str] = []
    rows: List[np.ndarray] = []
    labels: List[int] = []
    for spec in expanded:
        if spec.name not in out_store:
            out_store.add(
                characterize_benchmark(spec, configs, model, seed=seed)
            )
        char = out_store.get(spec.name)
        rows.append(char.counters.as_vector(feature_names))
        labels.append(char.best_size_kb())
        names.append(spec.name)
        families.append(spec.family)

    dataset = Dataset(
        features=np.vstack(rows),
        labels_kb=np.array(labels, dtype=float),
        names=tuple(names),
        families=tuple(families),
        feature_names=tuple(feature_names),
    )
    return dataset, out_store
